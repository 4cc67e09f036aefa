import pytest

from finform import (
    Formation,
    FormationLawViolated,
    Group,
    HypercentreNotHypercentral,
    NILPOTENT,
    NotNormal,
    SOLUBLE,
    SUPERSOLUBLE,
    SigmaPartition,
    UnknownFormation,
    alternating,
    builtin_formations,
    catalog_generate,
    centralizer_of_section,
    chief_series,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    formation_by_selector,
    from_permutation_gens,
    generated_subgroup,
    hypercentre,
    is_f_central,
    is_f_hypercentral,
    is_isomorphic,
    is_nilpotent,
    is_sigma_central,
    is_sigma_nilpotent,
    is_soluble,
    is_supersoluble,
    minimal_normal_subgroups,
    normal_subgroups,
    quaternion,
    quotient,
    residual,
    sigma_nilpotent_formation,
    symmetric,
)
from finform import construct, formations, lattice
from finform.formations import is_prime, section_product
from finform.lattice import _prime_factors, chief_series_through, normal_covers
from finform.verify import _escape

import oracles
import references


def a3_of(s3):
    return generated_subgroup(s3, [e for e in range(6) if s3.element_orders[e] == 3])


def v4_of(s4):
    return residual(s4, SUPERSOLUBLE)


class TestMembership:
    def test_trivial_in_everything(self):
        t = cyclic(1)
        assert is_nilpotent(t) and is_supersoluble(t) and is_soluble(t)

    def test_s3_flags(self):
        s3 = symmetric(3)
        assert not is_nilpotent(s3)
        assert is_supersoluble(s3)
        assert is_soluble(s3)

    def test_s4_flags(self):
        s4 = symmetric(4)
        assert not is_supersoluble(s4)
        assert is_soluble(s4)

    def test_nilpotent_families(self):
        assert is_nilpotent(quaternion(8))
        assert is_nilpotent(dihedral(4))
        assert not is_nilpotent(dihedral(5))

    def test_supersoluble_all_dihedral(self):
        for n in (3, 4, 5, 6, 9):
            assert is_supersoluble(dihedral(n))
        assert not is_supersoluble(alternating(4))


class TestSigma:
    def test_trivial_group(self):
        sig = SigmaPartition.parse("[[2,3]]")
        assert sig.one_class(1)
        assert is_sigma_nilpotent(cyclic(1), sig)

    def test_s4_is_23_primary(self):
        sig = SigmaPartition.parse("[[2,3]]")
        s4 = symmetric(4)
        assert sig.one_class(s4.order)
        assert is_sigma_nilpotent(s4, sig)

    def test_singletons_matches_nilpotency(self):
        sing = SigmaPartition()
        assert not is_sigma_nilpotent(symmetric(3), sing)
        assert is_sigma_nilpotent(cyclic(12), sing)

    def test_d10_splits_classes(self):
        sig = SigmaPartition.parse("[[2,3]]")
        d10 = dihedral(5)
        assert not sig.one_class(d10.order)
        assert not is_sigma_nilpotent(d10, sig)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            SigmaPartition.from_lists([[4]])
        with pytest.raises(ValueError):
            SigmaPartition.from_lists([[2, 3], [3, 5]])
        with pytest.raises(ValueError):
            SigmaPartition.parse("[2,3]")
        for entries in ([[3.9, 2]], [[2.5]], [[2.0]], [[True]], [["2"]], [[[2]]]):
            with pytest.raises(ValueError):
                SigmaPartition.from_lists(entries)
        # an empty class would name a listed partition a second time
        for entries in ([[], [2, 3]], [[2], []]):
            with pytest.raises(ValueError, match="empty"):
                SigmaPartition.from_lists(entries)

    def test_selector(self):
        sig = SigmaPartition.parse("[[2,3]]")
        f = formation_by_selector("sigma-nilpotent", sig)
        assert f.name == "sigma-nilpotent[[2,3]]"
        with pytest.raises(UnknownFormation):
            formation_by_selector("sigma-nilpotent")
        with pytest.raises(UnknownFormation):
            formation_by_selector("frobnicating")

    def test_selector_names_each_builtin(self):
        for F in builtin_formations():
            assert formation_by_selector(f"  {F.name.upper()} ") is F
        assert repr(NILPOTENT) == "Formation(nilpotent)"


class TestResidual:
    def test_member_group_has_trivial_residual(self):
        assert residual(cyclic(12), NILPOTENT).order == 1

    def test_s3_nilpotent_residual(self):
        s3 = symmetric(3)
        r = residual(s3, NILPOTENT)
        assert r == a3_of(s3)

    def test_s4_supersoluble_residual(self):
        s4 = symmetric(4)
        r = residual(s4, SUPERSOLUBLE)
        assert r.order == 4
        norm4 = [n for n in normal_subgroups(s4) if n.order == 4]
        assert len(norm4) == 1 and r == norm4[0]

    def test_broken_predicate_detected(self):
        # {groups of order <= 2} is not a formation: the three order-2
        # quotients of the Klein group intersect to a residual whose
        # quotient escapes the class
        broken = Formation("order-at-most-2", lambda G: G.order <= 2)
        with pytest.raises(FormationLawViolated):
            residual(elem_abelian(2, 2), broken)


class TestCentralSections:
    def test_trivial_section_is_central(self):
        s3 = symmetric(3)
        a3 = a3_of(s3)
        assert is_f_central(a3, a3, NILPOTENT)

    def test_s3_rotations_eccentric_for_nilpotent(self):
        s3 = symmetric(3)
        assert not is_f_central(a3_of(s3), s3.trivial_subgroup(), NILPOTENT)

    def test_s3_rotations_central_for_supersoluble(self):
        s3 = symmetric(3)
        assert is_f_central(a3_of(s3), s3.trivial_subgroup(), SUPERSOLUBLE)

    def test_section_product_s4(self):
        s4 = symmetric(4)
        p = section_product(v4_of(s4), s4.trivial_subgroup())
        assert is_isomorphic(p, s4) is not None

    def test_existential_definition_matches_full_centralizer(self):
        # dual route against the oracle, which searches all admissible
        # kernels per the definition instead of trusting the full
        # centralizer; bounded to sections whose products stay desk-sized
        for n in (3, 4):
            elems, mul = oracles.sym_group(n)
            normals = oracles.normal_subgroups(elems, mul)
            g = symmetric(n)
            engine_normals = normal_subgroups(g)
            for H_o, H_e in zip(normals, engine_normals):
                for K_o, K_e in zip(normals, engine_normals):
                    if not (K_o <= H_o):
                        continue
                    assert len(H_o) == H_e.order and len(K_o) == K_e.order
                    sec = len(H_o) // len(K_o)
                    cent = oracles.section_centralizer(elems, mul, H_o, K_o)
                    if sec * (len(elems) // len(cent)) > 48:
                        continue
                    want_n = oracles.is_f_central(
                        elems, mul, H_o, K_o, oracles.is_nilpotent
                    )
                    want_u = oracles.is_f_central(
                        elems, mul, H_o, K_o, oracles.is_supersoluble
                    )
                    assert is_f_central(H_e, K_e, NILPOTENT) == want_n
                    assert is_f_central(H_e, K_e, SUPERSOLUBLE) == want_u

    def test_sigma_central(self):
        sig = SigmaPartition.parse("[[2,3]]")
        s3 = symmetric(3)
        assert is_sigma_central(a3_of(s3), s3.trivial_subgroup(), sig)
        d10 = dihedral(5)
        c5 = generated_subgroup(d10, [e for e in range(10) if d10.element_orders[e] == 5])
        assert not is_sigma_central(c5, d10.trivial_subgroup(), sig)

    def test_both_predicates_reject_a_section_not_normal_in_g(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        c2 = generated_subgroup(s3, [t])
        sig = SigmaPartition.parse("[[2,3]]")
        for decide in (lambda H, K: is_f_central(H, K, NILPOTENT),
                       lambda H, K: is_sigma_central(H, K, sig)):
            with pytest.raises(NotNormal, match="H is not normal in S3"):
                decide(c2, s3.trivial_subgroup())

    @pytest.mark.parametrize("sigma", ["[[2,3]]", "[]"])
    def test_sigma_central_reads_the_order_without_building(self, sigma, monkeypatch):
        # the expected verdicts come from a separate catalog, built and
        # decided before the builder is patched, so no memo hides a build
        sig = SigmaPartition.parse(sigma)

        def pairs(catalog):
            for g in catalog.groups:
                normals = normal_subgroups(g)
                yield from ((g, H, K) for H in normals for K in normals if K <= H)

        want = [sig.one_class(section_product(H, K).order)
                for g, H, K in pairs(catalog_generate(24))]

        def refuse(*args, **kwargs):
            raise AssertionError("section product built")

        monkeypatch.setattr(construct, "semidirect_section", refuse)
        monkeypatch.setattr(formations, "semidirect_section", refuse)
        got = [is_sigma_central(H, K, sig) for g, H, K in pairs(catalog_generate(24))]
        assert got == want and len(want) > 2000 and 0 < sum(want) < len(want)


class TestHypercentre:
    def test_trivial_normal_is_hypercentral(self):
        s4 = symmetric(4)
        assert is_f_hypercentral(s4.trivial_subgroup(), SUPERSOLUBLE)

    def test_v4_not_u_hypercentral_in_s4(self):
        s4 = symmetric(4)
        assert not is_f_hypercentral(v4_of(s4), SUPERSOLUBLE)

    def test_a3_u_hypercentral_in_s3(self):
        s3 = symmetric(3)
        assert is_f_hypercentral(a3_of(s3), SUPERSOLUBLE)

    def test_hypercentre_values(self):
        s3 = symmetric(3)
        assert hypercentre(s3, NILPOTENT).order == 1
        assert hypercentre(s3, SUPERSOLUBLE).order == 6
        assert hypercentre(symmetric(4), SUPERSOLUBLE).order == 1

    def test_hypercentre_self_check_raises(self):
        # the rule passes <2>/1 but not the other order-2 subgroups of V4 over
        # 1, so the climb 1 < <2> < V4 passes and the re-check, on a chief
        # series through another order-2 subgroup, fails
        planted = Formation("planted", lambda G: True,
                            chief_rule=lambda H, K: H.order == H.parent.order
                            or (K.order == 1 and 2 in H))
        with pytest.raises(HypercentreNotHypercentral):
            hypercentre(elem_abelian(2, 2), planted)

    def test_member_group_is_its_own_hypercentre(self, catalog12):
        for g in catalog12.groups:
            for f in builtin_formations():
                if f.contains(g):
                    assert hypercentre(g, f).order == g.order

    def test_ascending_walk_matches_all_normals_reference(self, catalog24):
        # The join of every normal subgroup whose own chief series passes the
        # test: the definition the ascending walk replaces.
        def reference(G, central):
            members = {0}
            for N in normal_subgroups(G):
                terms = chief_series_through(N)
                if all(central(top, bottom) for top, bottom in zip(terms[1:], terms)
                       if top <= N):
                    members.update(N.array.tolist())
            return generated_subgroup(G, members)

        sig = SigmaPartition.parse("[[2,3]]")
        forms = builtin_formations(sig)
        for g in catalog24.groups:
            for f in forms:
                expected = reference(g, lambda t, b: is_f_central(t, b, f))
                assert hypercentre(g, f) == expected, (g.label, f.name)
            cyclic_chief = reference(g, lambda t, b: is_prime(t.order // b.order))
            assert hypercentre(g, SUPERSOLUBLE) == cyclic_chief, g.label
            sigma_central = reference(g, lambda t, b: is_sigma_central(t, b, sig))
            assert hypercentre(g, sigma_nilpotent_formation(sig)) == sigma_central, g.label

    @pytest.mark.parametrize("sigma", [None, "[[2,3]]", "[[2,3,5]]"])
    def test_chief_rule_matches_section_product(self, catalog48, sigma):
        # Every chief factor M/N met by the hypercentre walk: each formation's
        # local rule against the section-product definition.
        if sigma is None:
            forms = builtin_formations()
        else:
            forms = [sigma_nilpotent_formation(SigmaPartition.parse(sigma))]
        a5 = alternating(5)
        panel = catalog48.groups + [a5, direct_product(a5, cyclic(2)),
                                    direct_product(a5, cyclic(3))]
        checks = nonabelian_central = 0
        for g in panel:
            for N in normal_subgroups(g):
                for M in normal_covers(N):
                    for f in forms:
                        rule = f.chief_central(M, N)
                        assert rule == is_f_central(M, N, f), (g.label, f.name)
                        checks += 1
                        nonabelian_central += rule and len(_prime_factors(M.order // N.order)) > 1
        assert checks > 5000
        # A5 in A5, A5xC2 and A5xC3: the A5/1 factors and A5xC_p/C_p
        assert nonabelian_central == (5 if sigma == "[[2,3,5]]" else 0)

    def test_soluble_rule_reads_the_derived_series(self):
        # |G : C_G(M)| has three primes, so Burnside does not decide and the
        # rule reads G's derived series: AGL(1,31) on C31 (Q = C30, soluble)
        # and 2^4:A5, A5 on the even flips of five pairs (Q = A5, insoluble)
        agl = from_permutation_gens(31, [[(x + 1) % 31 for x in range(31)],
                                         [3 * x % 31 for x in range(31)]], order_cap=None)
        a5 = [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]]
        flips = from_permutation_gens(10, [s + [5 + x for x in s] for s in a5]
                                      + [[5, 6, 2, 3, 4, 0, 1, 7, 8, 9]], order_cap=None)
        for G, order, central in ((agl, 930, True), (flips, 960, False)):
            M, one = minimal_normal_subgroups(G)[0], G.trivial_subgroup()
            assert G.order == order and len(_prime_factors(G.order // M.order)) == 3
            assert SOLUBLE.chief_central(M, one) is central
            assert is_f_central(M, one, SOLUBLE) is central

    def test_hypercentre_builds_no_section_product(self, monkeypatch):
        calls = []
        real = construct.semidirect_section

        def counting(*args, **kwargs):
            calls.append(args[0].label)
            return real(*args, **kwargs)

        monkeypatch.setattr(construct, "semidirect_section", counting)
        monkeypatch.setattr(formations, "semidirect_section", counting)
        forms = builtin_formations(SigmaPartition.parse("[[2,3]]"))
        for g in catalog_generate(24).groups:
            for f in forms:
                hypercentre(g, f)
                for N in normal_subgroups(g):
                    is_f_hypercentral(N, f)
        assert calls == []

    @pytest.mark.parametrize("form", builtin_formations(SigmaPartition.parse("[[2,3]]")),
                             ids=lambda f: f.name)
    def test_hypercentre_builds_at_most_one_chief_series(self, form, monkeypatch):
        calls = []
        real = formations.chief_series_through

        def counting(N):
            calls.append(N.order)
            return real(N)

        monkeypatch.setattr(formations, "chief_series_through", counting)
        formations.hypercentre(elem_abelian(2, 4), form)
        assert len(calls) <= 1, calls

    def test_not_normal_raises(self):
        s3 = symmetric(3)
        from finform.groups import cyclic_subgroup

        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        with pytest.raises(NotNormal):
            is_f_hypercentral(cyclic_subgroup(s3, t), NILPOTENT)


def test_formations_that_share_a_name_share_no_memos():
    # memos are keyed by the formation object, not by its name
    s3, s4 = symmetric(3), symmetric(4)
    never = Formation("planted", lambda G: G.order == 1, chief_rule=lambda H, K: False)
    always = Formation("planted", lambda G: G.order == 1, chief_rule=lambda H, K: True)
    assert hypercentre(s4, never).order == 1
    assert hypercentre(s4, always).order == 24
    assert not NILPOTENT.contains(s3)
    assert Formation("nilpotent", lambda G: True).contains(s3)
    # one sigma-nilpotent object per partition, so the sweeps of a run share it
    assert sigma_nilpotent_formation(SigmaPartition.parse("[[2,3]]")) is \
        sigma_nilpotent_formation(SigmaPartition.parse("[[3,2]]"))


class TestIsLarge:
    """N is large in G when C_G(N) <= N; ``verify._escape`` is the one test
    of it and returns the escaping centralizer otherwise."""

    def test_whole_group(self):
        s4 = symmetric(4)
        assert _escape(s4.full_subgroup()) is None

    def test_v4_in_s4(self):
        s4 = symmetric(4)
        assert _escape(v4_of(s4)) is None

    def test_center_of_d8_not_large(self):
        from finform import center

        d8 = dihedral(4)
        z = center(d8)
        assert _escape(z) == {"residual": z.array.tolist(), "centralizer": list(range(8))}


class TestBuiltinLaws:
    def test_builtin_list(self):
        sig = SigmaPartition.parse("[[2,3]]")
        forms = builtin_formations(sig)
        assert [f.name for f in forms] == [
            "nilpotent",
            "supersoluble",
            "soluble",
            "sigma-nilpotent[[2,3]]",
        ]
        assert all(f.hereditary and f.saturated for f in forms)

    def test_nilpotent_equals_singleton_sigma(self, catalog24):
        sing = SigmaPartition()
        for g in catalog24.groups:
            assert is_nilpotent(g) == is_sigma_nilpotent(g, sing)
            assert is_nilpotent(g) == references.is_nilpotent(g), g.label

    def test_predicates_match_series_references(self, catalog24):
        # Each group of the catalog, every quotient of it, the section
        # product of every chief factor and of every normal section H/K on
        # which G acts (C_G(H/K) != G), each rebuilt cold from its table;
        # the catalog is soluble, so A5 and S5 join it.
        panel = [alternating(5), symmetric(5)]
        for g in catalog24.groups:
            normals = normal_subgroups(g)
            panel.append(g)
            panel.extend(quotient(N)[0] for N in normals)
            terms = chief_series(g)
            panel.extend(section_product(top, bottom)
                         for top, bottom in zip(terms[1:], terms))
            panel.extend(section_product(top, bottom)
                         for top in normals for bottom in normals if bottom < top
                         and centralizer_of_section(top, bottom) != g.full_subgroup())
        pairs = [
            (is_nilpotent, references.is_nilpotent),
            (is_soluble, references.is_soluble),
            (is_soluble, references.is_soluble_by_chief_series),
            (is_supersoluble, references.is_supersoluble),
            (is_supersoluble, references.is_supersoluble_by_chief_series),
        ]
        verdicts = set()
        for X in panel:
            for fast, reference in pairs:
                got = fast(Group(X.table, validate=False))
                assert got == reference(Group(X.table, validate=False)), (
                    X.label, fast.__name__, reference.__name__)
                verdicts.add((fast.__name__, got))
        # the panel holds members and non-members of every class
        assert len(verdicts) == 6

    def test_predicates_build_no_chief_series(self, catalog24, monkeypatch):
        # cold copies, so no memoised series can answer for the predicates
        panel = [(X.table, references.is_soluble_by_chief_series(X),
                  references.is_supersoluble_by_chief_series(X))
                 for X in catalog24.groups + [alternating(5), symmetric(5)]]

        def refuse(*args):
            raise AssertionError("membership built a chief series")

        for module in (formations, lattice):
            for name in ("chief_series_through", "normal_covers"):
                monkeypatch.setattr(module, name, refuse)
        monkeypatch.setattr(lattice, "chief_series", refuse)
        for table, soluble, supersoluble in panel:
            assert is_soluble(Group(table, validate=False)) == soluble
            assert is_supersoluble(Group(table, validate=False)) == supersoluble

    def test_supersoluble_peels_before_it_fails(self, monkeypatch):
        # C2 x A4 has one normal subgroup of prime order, its centre; the
        # quotient A4 has none (its minimal normal subgroup is V4)
        peeled = []

        def spy(N):
            peeled.append(N.order)
            return quotient(N)

        monkeypatch.setattr(formations, "quotient", spy)
        c2_a4 = direct_product(cyclic(2), alternating(4))
        assert not is_supersoluble(c2_a4)
        assert peeled == [2]
        assert is_soluble(c2_a4)

    def test_sigma_primary_implies_sigma_nilpotent(self, catalog12):
        for sig in (SigmaPartition.parse("[[2,3]]"), SigmaPartition.parse("[[2,5],[3]]")):
            for g in catalog12.groups:
                if sig.one_class(g.order):
                    assert is_sigma_nilpotent(g, sig)
