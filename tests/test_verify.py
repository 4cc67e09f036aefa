import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from finform import verify
from finform import (
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    Formation,
    HypercentreNotHypercentral,
    NotNormal,
    OrderCapExceeded,
    SigmaPartition,
    Subgroup,
    VerificationReport,
    all_subgroups,
    catalog_generate,
    cyclic,
    dihedral,
    elem_abelian,
    from_cayley_table,
    from_permutation_gens,
    is_isomorphic,
    normal_subgroups,
    sigma_nilpotent_formation,
    symmetric,
    verify_holomorph_bound,
    verify_lemma_suite,
    verify_schenkman_classic,
    verify_section3_corollaries,
    verify_theorem_a,
    verify_theorem_b,
)
from finform.cli import render_structured

import references

GROUPS = Path(__file__).resolve().parents[1] / "groups"
SHIPPED = tuple(str(GROUPS / name) for name in ("frobenius20.grp", "frobenius21.grp"))


class TestCatalog:
    def test_max_order_one(self):
        cat = catalog_generate(1)
        assert len(cat) == 1 and cat.groups[0].order == 1

    def test_max_order_six_contents(self):
        cat = catalog_generate(6)
        labels = [g.label for g in cat.groups]
        orders = sorted(g.order for g in cat.groups)
        # C1..C6, S3, Klein; D6 and C2xC3 fold into S3 and C6
        assert orders == [1, 2, 3, 4, 4, 5, 6, 6]
        assert "S3" in labels and "elab(2,2)" in labels
        assert "D6" not in labels and "C2xC3" not in labels

    def test_deduplication_is_up_to_isomorphism(self):
        cat = catalog_generate(16)
        for i, a in enumerate(cat.groups):
            for b in cat.groups[i + 1 :]:
                if a.order == b.order:
                    assert is_isomorphic(a, b) is None

    def test_includes_products(self):
        cat = catalog_generate(24)
        labels = {g.label for g in cat.groups}
        assert "C2xS3" in labels or "D12" in labels
        assert any(g.order == 24 for g in cat.groups)

    def test_user_file(self, tmp_path):
        path = tmp_path / "frobenius20.grp"
        path.write_text("perm 5\n(0 1 2 3 4)\n(1 2 4 3)\n")
        cat = catalog_generate(24, files=(str(path),))
        assert any(g.order == 20 and g.label == "frobenius20" for g in cat.groups)
        # the new order-20 group is centerless, unlike C20 and D20
        from finform import center

        frob = next(g for g in cat.groups if g.label == "frobenius20")
        assert center(frob).order == 1

    def test_keyed_dedupe_matches_search_reference_at_128(self):
        cat = catalog_generate(128, files=SHIPPED)
        ref = references.catalog_groups(128, files=SHIPPED)
        assert [g.label for g in cat.groups] == [g.label for g in ref]
        assert all(np.array_equal(g.table, r.table) for g, r in zip(cat.groups, ref))

    def test_family_groups_are_built_only_when_kept_and_never_searched(self, monkeypatch):
        from finform import construct

        built = []

        def recording(make):
            def build(*args, **kwargs):
                mark = len(built)
                G = make(*args, **kwargs)
                del built[mark:]  # a builder's own inner products are not candidates
                built.append(G.label)
                return G
            return build

        def no_search(G, H, *args):
            raise AssertionError(f"searched {G.label} against {H.label}")

        for name in ("cyclic", "symmetric", "alternating", "dihedral", "quaternion",
                     "elem_abelian", "direct_product"):
            monkeypatch.setattr(construct, name, recording(getattr(construct, name)))
        monkeypatch.setattr(verify, "is_isomorphic", no_search)
        cat = catalog_generate(60)
        # D6 folds into S3, C2xC3 into C6 and C2xS3 into D12 without being built
        assert built == [g.label for g in cat.groups]
        assert {"S3", "C6", "D12", "C2xA4"} <= set(built)

    def test_user_files_fold_up_to_isomorphism(self, tmp_path):
        texts = {
            "s3.grp": "perm 3\n(0 1 2)\n(0 1)\n",
            "v4.grp": "perm 4\n(0 1)(2 3)\n(0 2)(1 3)\n",
            "frobenius20.grp": "perm 5\n(0 1 2 3 4)\n(1 2 4 3)\n",
        }
        for name, text in texts.items():
            (tmp_path / name).write_text(text)
        files = tuple(str(tmp_path / name) for name in texts)
        cat = catalog_generate(24, files=files)
        labels = [g.label for g in cat.groups]
        assert labels == [g.label for g in catalog_generate(24).groups] + ["frobenius20"]
        assert "S3" in labels and "elab(2,2)" in labels
        # the same file twice is one group
        again = catalog_generate(24, files=files + files[2:])
        assert [g.label for g in again.groups] == labels

    def test_deterministic(self):
        a = catalog_generate(12)
        b = catalog_generate(12)
        assert [g.label for g in a.groups] == [g.label for g in b.groups]
        assert all(
            (x.table == y.table).all() for x, y in zip(a.groups, b.groups)
        )


def _v4_internal_error(run, error, v4_failures=1):
    """Run ``run`` on C2, V4, C3 and on C2, C3, and check that each report
    holds ``v4_failures`` failures on V4, the last of them its one
    internal-error failure, with its Cayley table; that V4 has no skip; and
    that the records on C2 and C3 equal those of the run without V4.
    Returns the (report, report without V4) pairs."""
    c2, v4, c3 = cyclic(2), elem_abelian(2, 2), cyclic(3)
    reports = run(verify.Catalog([c2, v4, c3], 4, "C2, V4, C3"))
    alone = run(verify.Catalog([c2, c3], 3, "C2, C3"))
    for rep, ref in zip(reports, alone, strict=True):
        errors = [f for f in rep.failures if f.get("reason") == "internal-error"]
        assert [(f["group"], f["detail"].split(":")[0]) for f in errors] == [
            (v4.label, error)
        ], rep.claim
        assert errors[0]["cayley"] == v4.table.tolist()
        on_v4 = [f for f in rep.failures if f["group"] == v4.label]
        assert len(on_v4) == v4_failures and on_v4[-1] is errors[0], rep.claim
        assert [f for f in rep.failures if f["group"] != v4.label] == ref.failures
        assert rep.skipped == ref.skipped, rep.claim
    return list(zip(reports, alone))


def _raising_on_order_4(monkeypatch, *names, error=HypercentreNotHypercentral):
    """Make each named engine call of ``verify`` raise ``error`` when its
    group, or the group of its subgroup, has order 4."""
    for name in names:
        def call(X, *args, real=getattr(verify, name)):
            if getattr(X, "parent", X).order == 4:
                raise error("planted on V4")
            return real(X, *args)

        monkeypatch.setattr(verify, name, call)


class TestTheoremB:
    def test_s3_instance_asserted(self, catalog12):
        rep = verify_theorem_b(catalog12, NILPOTENT)
        assert rep.passed
        assert rep.checked == len(catalog12.groups)
        assert rep.asserted >= 2  # the trivial group and S3 at least
        skipped_groups = {s["group"] for s in rep.skipped}
        assert "S3" not in skipped_groups
        assert "C4" in skipped_groups  # nilpotent: hypercentre is everything

    def test_member_groups_skip(self, catalog12):
        rep = verify_theorem_b(catalog12, SOLUBLE)
        reasons = {s["reason"] for s in rep.skipped}
        assert reasons <= {"hypothesis-failed"}
        assert rep.asserted == 1  # only the trivial group below order 60

    def test_hypercentre_self_check_is_a_replayable_failure(self):
        planted = Formation("planted", lambda G: True,
                            chief_rule=lambda H, K: H.order == H.parent.order
                            or (K.order == 1 and 2 in H))
        c2, v4 = cyclic(2), elem_abelian(2, 2)
        rep = verify_theorem_b(verify.Catalog([c2, v4], 4, "C2, V4"), planted)
        [error] = rep.failures
        assert (error["group"], error["reason"]) == (v4.label, "internal-error")
        assert error["detail"].startswith("HypercentreNotHypercentral:")
        assert np.array_equal(from_cayley_table(error["cayley"]).table, v4.table)
        # C2 is checked and skipped (its hypercentre is C2); V4 is checked
        # before its hypercentre raises
        assert (rep.checked, rep.asserted) == (2, 0)
        assert [(s["group"], s["reason"]) for s in rep.skipped] == [
            (c2.label, "hypothesis-failed")]

    @pytest.mark.parametrize("sweep, v4_counts", [
        pytest.param(verify_theorem_b, (1, 1, 1), id="verify_theorem_b"),
        # subgroups 1, three C2 and V4 itself: the first four escape (their
        # residual is 1), then V4's own residual raises
        pytest.param(verify_theorem_a, (5, 5, 5), id="verify_theorem_a"),
        # the residual comes before the assertion
        pytest.param(verify_holomorph_bound, (1, 0, 1), id="verify_holomorph_bound"),
    ])
    def test_internal_error_is_a_replayable_failure_and_the_sweep_goes_on(self, sweep,
                                                                          v4_counts):
        # no chief factor is central, so Z_F = 1 everywhere; the residual's
        # re-check raises FormationLawViolated on V4 only (its three order-2
        # quotients meet in 1, and V4/1 has order 4)
        broken = Formation("order-at-most-2", lambda G: G.order <= 2,
                           chief_rule=lambda H, K: False)
        checked, asserted, failures = v4_counts
        [(rep, alone)] = _v4_internal_error(lambda cat: [sweep(cat, broken)],
                                            "FormationLawViolated", failures)
        assert (rep.checked - alone.checked, rep.asserted - alone.asserted) == (
            checked, asserted)

    def test_any_engine_error_is_a_replayable_failure(self, monkeypatch):
        # NotNormal is no invariant check of the sweep, yet it is recorded
        # on V4 like one and the sweep goes on
        _raising_on_order_4(monkeypatch, "hypercentre", error=NotNormal)
        [(rep, alone)] = _v4_internal_error(
            lambda cat: [verify_theorem_b(cat, NILPOTENT)], "NotNormal")
        assert (rep.checked - alone.checked, rep.asserted - alone.asserted) == (1, 0)

    def test_unsaturated_formation_rejected(self, catalog12):
        from finform import Formation

        fake = Formation("fake", lambda G: True)  # no chief-factor rule
        with pytest.raises(ValueError):
            verify_theorem_b(catalog12, fake)


def test_run_all_sweeps_each_formation_only_where_its_theorem_accepts_it():
    # an unsaturated formation fits neither theorem-b, theorem-a nor the
    # holomorph bound: run_all leaves those claims out, a direct call raises
    cat = catalog_generate(6)
    abelian = Formation("abelian", lambda G: G.is_abelian())
    claims = [r.claim for r in verify.run_all(cat, [abelian])]
    assert claims[0] == "schenkman" and claims[-1] == "lemmas"
    assert all(c.startswith("section3-") for c in claims[1:-1]) and len(claims) == 7
    for direct in (verify_theorem_b, verify_theorem_a, verify_holomorph_bound):
        with pytest.raises(ValueError, match="requires a"):
            direct(cat, abelian)


class TestTheoremA:
    def test_nilpotent_at_12(self, catalog12):
        rep = verify_theorem_a(catalog12, NILPOTENT)
        assert rep.passed
        assert rep.checked > 50  # Kegel-subnormal pairs abound
        assert rep.asserted >= 3  # S3, A4, D10 towers
        assert all(s["reason"] == "hypothesis-failed" for s in rep.skipped)

    def test_sylow_instance_skips_with_reason(self, catalog24):
        # the order-8 Sylow of S4 reaches the hypothesis scan only for the
        # supersoluble class (its single chain step has quotient S3, which
        # is supersoluble but not nilpotent); there it is skipped because
        # its own hypercentre is itself
        rep_n = verify_theorem_a(catalog24, NILPOTENT)
        assert not any(
            s["group"] == "S4" and len(s.get("subgroup", ())) == 8
            for s in rep_n.skipped
        )
        rep_u = verify_theorem_a(catalog24, SUPERSOLUBLE)
        d4_skips = [
            s
            for s in rep_u.skipped
            if s["group"] == "S4" and len(s.get("subgroup", ())) == 8
        ]
        assert d4_skips and all(
            "nontrivial hypercentre" in s["detail"] for s in d4_skips
        )

    def test_failure_records_carry_the_shortest_witness(self):
        # a planted formation: on V4 the subgroups 1 and three C2 escape, and
        # each record's chain is the breadth-first reference's witness
        broken = Formation("order-at-most-2", lambda G: G.order <= 2,
                           chief_rule=lambda H, K: False)
        v4 = elem_abelian(2, 2)
        rep = verify_theorem_a(verify.Catalog([v4], 4, "V4"), broken)
        escapes = [f for f in rep.failures if "chain" in f]
        assert len(escapes) == 4
        step = references.definition_step(broken.contains)
        for f in escapes:
            S = Subgroup(v4, f["subgroup"])
            assert f["chain"] == list(references.chain_search(S, step).order_trail())

    def test_a4_in_s4_asserted(self, catalog24):
        rep = verify_theorem_a(catalog24, NILPOTENT)
        skipped_pairs = {(s["group"], tuple(s.get("subgroup", ()))) for s in rep.skipped}
        s4 = next(g for g in catalog24.groups if g.label == "S4")
        from finform import generated_subgroup

        a4 = generated_subgroup(
            s4, [e for e in range(24) if s4.element_orders[e] == 3]
        )
        assert ("S4", tuple(a4.array.tolist())) not in skipped_pairs


class TestSchenkman:
    def test_passes_and_asserts(self, catalog12):
        rep = verify_schenkman_classic(catalog12)
        assert rep.passed
        assert rep.asserted >= 2
        assert all(s["reason"] == "hypothesis-failed" for s in rep.skipped)

    def test_internal_error_is_a_replayable_failure_and_the_sweep_goes_on(self, monkeypatch):
        _raising_on_order_4(monkeypatch, "is_subnormal")
        [(rep, alone)] = _v4_internal_error(lambda cat: [verify_schenkman_classic(cat)],
                                            "HypercentreNotHypercentral")
        assert (rep.checked, rep.asserted) == (alone.checked, alone.asserted)


def _run_with_planted_failure(plant, catalog, run):
    """The reports of ``run(catalog)`` with the failure that ``plant(mp)``
    plants through a monkeypatch, checked to keep the counts and skips of the
    clean run: a failure recorded on one group leaves the sweep to go on
    with the next."""
    clean = run(catalog)
    with pytest.MonkeyPatch.context() as mp:
        plant(mp)
        reports = run(catalog)
    for rep, ref in zip(reports, clean, strict=True):
        assert (rep.checked, rep.asserted, rep.skipped) == (
            ref.checked, ref.asserted, ref.skipped)
    return reports


def _members_of_order(G, n):
    """The members of G's one subgroup of order n."""
    [S] = [S for S in all_subgroups(G) if S.order == n]
    return S.array.tolist()


class TestSchenkmanFailures:
    @staticmethod
    def run(plant):
        """Schenkman's report on S3, C3, S4 with ``plant`` on, and that S4.
        S3 and S4 have subnormal subgroups with trivial centralizer (S3; A4
        and S4), C3 between them has none."""
        s3, s4 = symmetric(3), symmetric(4)
        catalog = verify.Catalog([s3, cyclic(3), s4], 24, "S3, C3, S4")
        [rep] = _run_with_planted_failure(
            plant, catalog, lambda cat: [verify_schenkman_classic(cat)])
        for f in rep.failures:
            assert f["cayley"] == {"S3": s3, "S4": s4}[f["group"]].table.tolist()
        return rep, s4

    def test_escaping_residual_is_a_replayable_failure(self):
        rep, s4 = self.run(
            lambda mp: mp.setattr(verify, "residual", lambda G, F: G.trivial_subgroup()))
        s3_all, s4_all, a4 = list(range(6)), list(range(24)), _members_of_order(s4, 12)
        assert [(f["group"], f["subgroup"], f["residual"], f["centralizer"])
                for f in rep.failures] == [
            ("S3", s3_all, [0], s3_all), ("S4", a4, [0], s4_all), ("S4", s4_all, [0], s4_all),
        ]
        assert {f["detail"] for f in rep.failures} == {"nilpotent residual is not large"}

    def test_bridging_failure_names_each_overgroup(self):
        rep, s4 = self.run(
            lambda mp: mp.setattr(verify, "upper_central_series",
                                  lambda G: (G.trivial_subgroup(), G.full_subgroup())))
        s3_all, s4_all, a4 = list(range(6)), list(range(24)), _members_of_order(s4, 12)
        assert [(f["group"], f["subgroup"], f["overgroup"]) for f in rep.failures] == [
            ("S3", s3_all, s3_all), ("S4", a4, a4), ("S4", a4, s4_all), ("S4", s4_all, s4_all),
        ]
        assert {f["detail"] for f in rep.failures} == {
            "bridging claim failed: expected trivial nilpotent and classical hypercentres"}


class TestHolomorphBound:
    def test_passes_with_tight_s3(self, catalog12):
        rep = verify_holomorph_bound(catalog12, NILPOTENT)
        assert rep.passed
        assert ["S3", 6] in rep.extras["tight_instances"]

    def test_member_groups_trivially_pass(self, catalog12):
        rep = verify_holomorph_bound(catalog12, SOLUBLE)
        assert rep.passed and rep.asserted == rep.checked

    def test_automorphism_budget_hit_is_a_skip(self):
        rep = verify_holomorph_bound(catalog_generate(12), NILPOTENT, aut_budget=1)
        assert (rep.checked, rep.asserted) == (23, 19)
        assert [(s["group"], s["reason"]) for s in rep.skipped] == [
            (label, "budget-exceeded") for label in ("S3", "A4", "D10", "D12")
        ]
        assert rep.passed and rep.budget_exhausted
        assert (len(rep.extras["tight_instances"]), rep.extras["max_slack"]) == (19, 0)


def _gl23_subgroup(*matrices):
    """The matrix group generated over F_3, acting on the eight nonzero
    vectors of F_3^2."""
    vectors = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]

    def image(m):
        return [vectors.index(((m[0][0] * a + m[0][1] * b) % 3,
                               (m[1][0] * a + m[1][1] * b) % 3)) for a, b in vectors]

    return from_permutation_gens(8, [image(m) for m in matrices])


@pytest.mark.parametrize("extra, order", [((), 24), (([[2, 0], [0, 1]],), 48)])
def test_holomorph_hypothesis_fails_where_the_residual_meets_the_hypercentre(extra,
                                                                             order):
    # SL(2,3) and GL(2,3): the residual for the nilpotent and the
    # supersoluble class contains the central -1, so the bound is not
    # asserted; both groups are soluble, so for the soluble class it is
    G = _gl23_subgroup([[1, 1], [0, 1]], [[0, 2], [1, 0]], *extra)
    assert G.order == order
    catalog = verify.Catalog([G], order, G.label)
    for F in (NILPOTENT, SUPERSOLUBLE):
        rep = verify_holomorph_bound(catalog, F)
        assert (rep.checked, rep.asserted, rep.failures) == (1, 0, [])
        assert rep.skipped == [{"group": G.label, "reason": "hypothesis-failed",
                                "detail": "residual meets the hypercentre nontrivially"}]
    rep = verify_holomorph_bound(catalog, SOLUBLE)
    assert (rep.checked, rep.asserted, rep.skipped, rep.failures) == (1, 1, [], [])


class TestSection3:
    def test_all_pass(self, catalog12):
        sig = SigmaPartition.parse("[[2,3]]")
        reports = verify_section3_corollaries(catalog12, sig)
        assert len(reports) == 5
        for rep in reports:
            assert rep.passed, rep.claim
        agreement = reports[-1]
        assert agreement.claim == "section3-sigma-chain-agreement"
        assert agreement.checked == agreement.asserted > 0

    def test_internal_error_is_a_replayable_failure_and_the_sweep_goes_on(self, monkeypatch):
        _raising_on_order_4(monkeypatch, "is_k_f_subnormal", "is_f_subnormal",
                            "is_sigma_subnormal")
        sig = SigmaPartition.singletons()
        pairs = _v4_internal_error(lambda cat: verify_section3_corollaries(cat, sig),
                                   "HypercentreNotHypercentral")
        # only the agreement sweep counts V4's first subgroup before its chain search
        assert [(r.checked - a.checked, r.asserted - a.asserted) for r, a in pairs] == (
            [(0, 0)] * 4 + [(1, 1)]
        )


def test_sigma_kegel_disagreement_is_a_replayable_failure():
    sig = SigmaPartition.parse("[[2,3]]")
    s3, s4 = symmetric(3), symmetric(4)
    catalog = verify.Catalog([s3, s4], 24, "S3, S4")
    real = verify.is_sigma_subnormal

    def plant(mp):
        mp.setattr(verify, "is_sigma_subnormal", lambda S, *args: (
            None if S is s3.full_subgroup() else real(S, *args)))

    agreement = _run_with_planted_failure(
        plant, catalog, lambda cat: verify_section3_corollaries(cat, sig)[-1:])[0]
    assert agreement.checked == len(all_subgroups(s3)) + len(all_subgroups(s4))
    [record] = agreement.failures
    assert record == {
        "group": "S3", "order": 6, "subgroup": list(range(6)),
        "sigma_subnormal": False, "kegel_subnormal": True,
        "detail": "sigma-chain and Kegel-chain verdicts differ",
        "cayley": s3.table.tolist(),
    }


def _section_law_context(G, F):
    """A lemma-suite context holding what the central-section laws read."""
    return verify._LawContext(
        G, F, np.random.default_rng(0), all_subgroups(G), normal_subgroups(G),
        factors=(), in_f=False, Z=G.trivial_subgroup(),
        central=verify._central_normal_pairs(G, F), supplements={},
    )


class TestLemmaSuite:
    def test_nilpotent_at_12(self, catalog12):
        rep = verify_lemma_suite(catalog12, NILPOTENT)
        assert rep.passed
        assert rep.checked > 1000

    def test_sigma_coherence_included(self, catalog12):
        sig = SigmaPartition.parse("[[2,3]]")
        rep = verify_lemma_suite(catalog12, sigma_nilpotent_formation(sig))
        assert rep.passed

    def test_order_cap_hit_is_a_skip(self):
        # D66's G/1 section product has order 66 * 66, over the cap
        s3 = symmetric(3)
        alone = verify_lemma_suite(verify.Catalog([s3], 66, "S3"), NILPOTENT)
        rep = verify_lemma_suite(
            verify.Catalog([symmetric(3), dihedral(33)], 66, "S3, D66"), NILPOTENT
        )
        assert [(s["group"], s["reason"]) for s in rep.skipped] == [
            ("D66", "order-cap-exceeded")
        ]
        assert "exceeds cap" in rep.skipped[0]["detail"]
        assert rep.checked == alone.checked > 0
        assert rep.passed and rep.budget_exhausted

    def test_cap_hit_inside_a_law_drops_the_groups_items(self, monkeypatch):
        def capped(ctx):
            yield {"partial": True}
            raise OrderCapExceeded("order 4356 exceeds cap 4096")

        monkeypatch.setitem(verify.LAWS, "equivalent-pairs-isomorphic", capped)
        rep = verify_lemma_suite(verify.Catalog([symmetric(3)], 6, "S3"), NILPOTENT)
        assert (rep.checked, rep.failures) == (0, [])
        assert [s["reason"] for s in rep.skipped] == ["order-cap-exceeded"]

    def test_internal_error_is_a_replayable_failure_and_the_sweep_goes_on(self):
        # V4's three quotients of order 2 meet in 1, and V4/1 has order 4, so
        # the residual's own re-check raises FormationLawViolated on V4 only
        broken = Formation("order-at-most-2", lambda G: G.order <= 2)
        c2, v4, c3 = cyclic(2), elem_abelian(2, 2), cyclic(3)
        rep = verify_lemma_suite(verify.Catalog([c2, v4, c3], 4, "C2, V4, C3"), broken)
        alone = verify_lemma_suite(verify.Catalog([c2, c3], 3, "C2, C3"), broken)
        errors = [f for f in rep.failures if f.get("reason") == "internal-error"]
        assert [(f["group"], f["detail"].split(":")[0]) for f in errors] == [
            (v4.label, "FormationLawViolated")
        ]
        assert errors[0]["cayley"] == v4.table.tolist()
        assert rep.checked == rep.asserted == alone.checked > 0
        assert [f for f in rep.failures if f not in errors] == alone.failures

    @pytest.mark.parametrize("F", [
        NILPOTENT,
        SUPERSOLUBLE,
        # C4/1 is central (its section product is C4) but its cut to C2 is not
        Formation("order-not-2", lambda G: G.order != 2, hereditary=True),
    ], ids=lambda F: F.name)
    def test_central_section_laws_match_per_item_references(self, catalog12, F):
        failures = 0
        for G in catalog12:
            ctx = _section_law_context(G, F)
            for law, reference in (
                (verify._central_sections_restrict_to_subgroups,
                 references.central_sections_restrict_to_subgroups),
                (verify._central_sections_refine, references.central_sections_refine),
            ):
                got = list(law(ctx))
                assert got == list(reference(ctx)), (G.label, law.__name__)
                failures += sum(d is not None for d in got)
        assert (failures > 0) == (F.name == "order-not-2")

    def test_restrict_law_decides_each_distinct_section_once(self, monkeypatch):
        G = symmetric(4)
        ctx = _section_law_context(G, SUPERSOLUBLE)
        distinct = {
            (E, E.intersect(R), E.intersect(S))
            for S, R in ctx.central_pairs for E in ctx.subgroups
        }
        calls = []
        real = verify.is_f_central

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(verify, "is_f_central", counting)
        monkeypatch.setattr(references, "is_f_central", counting)
        items = len(list(verify._central_sections_restrict_to_subgroups(ctx)))
        law_calls = len(calls)
        list(verify._central_sections_refine(ctx))
        assert len(calls) == law_calls  # refine reads the verdicts of ctx.central
        calls.clear()
        assert len(list(references.central_sections_restrict_to_subgroups(ctx))) == items
        # the per-item reference decides every item, far more than the sections
        assert law_calls <= len(distinct) < len(calls) == items

    @pytest.mark.parametrize("F, items, failures", [
        (NILPOTENT, 1990, 0),
        (SUPERSOLUBLE, 2036, 0),
        # unsaturated: Q8 is a minimal supplement of its centre, with an
        # abelian quotient, so failure details and their order are compared
        (Formation("abelian", lambda G: G.is_abelian(), hereditary=True), 1959, 45),
    ], ids=["nilpotent", "supersoluble", "abelian"])
    def test_minimal_supplement_law_matches_pairwise_reference(self, catalog24, F,
                                                               items, failures):
        got = []
        for G in catalog24:
            subgroups, normals = all_subgroups(G), normal_subgroups(G)
            ctx = verify._LawContext(
                G, F, np.random.default_rng(0), subgroups, normals,
                factors=(), in_f=False, Z=G.trivial_subgroup(), central={},
                supplements=verify._supplements(G, subgroups, normals),
            )
            law = list(verify._minimal_supplement_membership(ctx))
            assert law == list(references.minimal_supplement_membership(ctx)), G.label
            got += law
        assert (len(got), sum(d is not None for d in got)) == (items, failures)

    def test_every_law_checks_an_instance(self, catalog12, monkeypatch):
        counts = dict.fromkeys(verify.LAWS, 0)

        def counting(name, law):
            def wrapper(ctx):
                for detail in law(ctx):
                    counts[name] += 1
                    yield detail

            return wrapper

        for name, law in list(verify.LAWS.items()):
            monkeypatch.setitem(verify.LAWS, name, counting(name, law))
        sig = SigmaPartition.parse("[[2,3]]")
        rep = verify_lemma_suite(catalog12, sigma_nilpotent_formation(sig))
        assert [name for name, n in counts.items() if n == 0] == []
        assert sum(counts.values()) == rep.checked

    def test_hereditary_meet_pairs_match_list_reference(self, monkeypatch):
        # The law's earlier selection listed all n^2 pairs and picked from them.
        def reference_pairs(subs, rng):
            pairs = [(A, B) for A in subs for B in subs]
            if len(pairs) > 4 * verify.PAIR_SAMPLE:
                pick = rng.choice(len(pairs), size=4 * verify.PAIR_SAMPLE, replace=False)
                pairs = [pairs[int(k)] for k in sorted(pick)]
            return pairs

        meets = []
        real = Subgroup.intersect

        def recording(sub, other):
            meets.append((sub, other))
            return real(sub, other)

        monkeypatch.setattr(Subgroup, "intersect", recording)
        law_rng, ref_rng = np.random.default_rng(11), np.random.default_rng(11)
        for G in [elem_abelian(2, 4)] + catalog_generate(12).groups:
            subgroups = all_subgroups(G)
            meets.clear()
            ctx = SimpleNamespace(subgroups=subgroups, rng=law_rng, F=NILPOTENT)
            checked = len(list(verify._hypercentre_meets_subgroups(ctx)))
            # per pair (A, B) the law meets B with A, then Z_F(B) with A
            visited = [(A, B) for B, A in [m for m in meets if m[0].parent is G][::2]]
            assert visited == reference_pairs(subgroups, ref_rng), G.label
            assert checked == len(visited)
            assert law_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_isomorphism_law_forms_only_the_sampled_pairs(self, monkeypatch):
        # The law's earlier selection listed all n(n-1) ordered pairs of
        # distinct normal subgroups and kept the first PAIR_SAMPLE of them.
        class CountingList(list):
            reads = 0

            def __iter__(self):
                for x in list.__iter__(self):
                    CountingList.reads += 1
                    yield x

        sections = []
        real = verify.section_product

        def recording(H, K):
            sections.append((H, K))
            return real(H, K)

        monkeypatch.setattr(verify, "section_product", recording)
        G = elem_abelian(2, 4)
        normals = normal_subgroups(G)
        ctx = SimpleNamespace(G=G, F=NILPOTENT, normals=CountingList(normals))
        checked = len(list(verify._section_product_isomorphism(ctx)))
        # per pair (M, N) the law builds [MN/N] and then [M/(M meet N)]
        visited = [(rhs[0], lhs[1]) for lhs, rhs in zip(sections[::2], sections[1::2])]
        reference = [(M, N) for M in normals for N in normals if M != N][:verify.PAIR_SAMPLE]
        assert checked == len(visited) == verify.PAIR_SAMPLE and visited == reference
        # the first M, then N over the first PAIR_SAMPLE + 1 normals (N = M is skipped)
        assert CountingList.reads == 1 + verify.PAIR_SAMPLE + 1 < len(normals) ** 2

    @pytest.mark.parametrize("n_size,h_size", [(1, 1), (1, 5), (4, 1), (3, 8), (12, 7)])
    def test_pair_permutation_matches_loop_reference(self, n_size, h_size):
        def reference(n_size, h_size, rng):  # the earlier double loop
            pn = np.concatenate(([0], 1 + rng.permutation(n_size - 1))) if n_size > 1 else np.zeros(1, dtype=np.int64)
            ph = np.concatenate(([0], 1 + rng.permutation(h_size - 1))) if h_size > 1 else np.zeros(1, dtype=np.int64)
            out = np.empty(n_size * h_size, dtype=np.int64)
            for n in range(n_size):
                for h in range(h_size):
                    out[n * h_size + h] = pn[n] * h_size + ph[h]
            return out

        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        got = verify._pair_permutation(n_size, h_size, rng)
        expected = reference(n_size, h_size, ref_rng)
        assert got.dtype == expected.dtype and got.tolist() == expected.tolist()
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_unsaturated_class_fails_named_laws(self):
        # the abelian groups form a formation that is not saturated: D8 and
        # Q8 are not abelian although their derived subgroup is Frattini-small
        abelian = Formation("abelian", lambda G: G.is_abelian())
        rep = verify_lemma_suite(catalog_generate(8), abelian)
        assert rep.checked == 3047 and len(rep.failures) == 16
        laws = (
            "saturation",
            "membership-by-central-factors",
            "hypercentral-normal-with-member-quotient",
            "minimal-supplement-membership",
        )
        assert {(f["group"], f["law"]) for f in rep.failures} == {
            (group, law) for group in ("D8", "Q8") for law in laws
        }
        assert all("cayley" in f for f in rep.failures)


class TestReports:
    def test_failure_record_carries_cayley(self):
        from finform.verify import _fail

        s3 = symmetric(3)
        rep = VerificationReport("x", None, None, "cov")
        _fail(rep, s3, subgroup=[0], detail="synthetic")
        (rec,) = rep.failures
        assert list(rec) == ["group", "order", "subgroup", "detail", "cayley"]
        assert rec["group"] == "S3" and rec["order"] == 6
        assert rec["cayley"] == s3.table.tolist()

    def test_passed_iff_no_failures(self):
        rep = VerificationReport("x", None, None, "cov")
        assert rep.passed
        rep.failures.append({"detail": "boom"})
        assert not rep.passed

    def test_structured_round_trip(self, catalog12):
        rep = verify_theorem_b(catalog12, NILPOTENT)
        blob = render_structured([rep])
        data = json.loads(blob)
        assert data["verdict"] == "PASS"
        assert data["reports"][0]["claim"] == "theorem-b"
        assert data["reports"][0]["checked"] == rep.checked
        assert data["reports"][0]["elapsed_ms"] is None

    def test_text_lists_ten_failures_and_counts_the_rest(self):
        rep = VerificationReport("x", "nilpotent", None, "cov")
        rep.failures = [{"detail": f"boom {i}"} for i in range(12)]
        lines = rep.to_text().splitlines()
        assert lines[2:] == [
            *(f"    FAILURE: {{'detail': 'boom {i}'}}" for i in range(10)),
            "    ... and 2 more failures",
            "  FAIL",
        ]
        rep.elapsed_ms = 7
        assert rep.to_text().splitlines()[-1] == "  FAIL (7 ms)"

    def test_text_and_structured_agree(self, catalog12):
        rep = verify_theorem_b(catalog12, SUPERSOLUBLE)
        text = rep.to_text()
        data = rep.to_dict()
        assert str(data["checked"]) in text
        assert ("PASS" in text) == (data["verdict"] == "PASS")
