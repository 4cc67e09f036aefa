from collections import Counter
from pathlib import Path

import pytest

from finform import (
    NILPOTENT,
    SOLUBLE,
    SUPERSOLUBLE,
    Formation,
    LatticeBudgetExceeded,
    SigmaPartition,
    Subgroup,
    all_subgroups,
    builtin_formations,
    catalog_generate,
    centralizer,
    centralizer_of_section,
    chain_subnormals,
    chief_series_through,
    dihedral,
    from_cayley_table,
    generated_subgroup,
    is_f_subnormal,
    is_k_f_subnormal,
    is_sigma_subnormal,
    is_subnormal,
    overgroups,
    quotient,
    sigma_nilpotent_formation,
    symmetric,
)
from finform import groups, subnormal
from finform.groups import core, cyclic_subgroup, join
from finform.subnormal import F_STEP, NORMAL_STEP, WitnessChain

import references


def d4_in_s4(s4):
    for a in range(24):
        for b in range(24):
            s = generated_subgroup(s4, [a, b])
            if s.order == 8:
                return s
    raise AssertionError


class TestPlainSubnormal:
    def test_whole_group_is_empty_chain(self):
        s4 = symmetric(4)
        chain = is_subnormal(s4.full_subgroup())
        assert chain is not None and len(chain) == 0

    def test_a4_in_s4(self):
        s4 = symmetric(4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        chain = is_subnormal(a4)
        assert chain.order_trail() == (12, 24)
        assert chain.step_kinds == (NORMAL_STEP,)

    def test_transposition_not_subnormal(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        assert is_subnormal(cyclic_subgroup(s3, t)) is None

    def test_involutions_split(self):
        # double transpositions sit under the Klein four-group and descend
        # C2 <| V4 <| A4 <| S4; transpositions have full normal closure.
        # The descent must separate the two kinds.
        s4 = symmetric(4)
        verdicts = {
            is_subnormal(cyclic_subgroup(s4, m)) is not None
            for m in range(1, 24)
            if s4.element_orders[m] == 2
        }
        assert verdicts == {True, False}


class TestKegelChains:
    def test_whole_group(self):
        s4 = symmetric(4)
        chain = is_k_f_subnormal(s4.full_subgroup(), NILPOTENT)
        assert len(chain) == 0 and chain.describe() == "24"

    def test_chain_needs_one_step_kind_per_step(self):
        s4 = symmetric(4)
        with pytest.raises(ValueError, match="one step kind per consecutive pair"):
            WitnessChain((s4.full_subgroup(),), ("x",))

    def test_sylow2_single_f_step(self):
        s4 = symmetric(4)
        chain = is_k_f_subnormal(d4_in_s4(s4), SUPERSOLUBLE)
        assert chain.order_trail() == (8, 24)
        assert chain.step_kinds == (F_STEP,)
        low, high = chain.terms
        assert high.order // core(high, low).order == 6

    def test_transposition_negative_for_nilpotent(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        assert is_k_f_subnormal(cyclic_subgroup(s3, t), NILPOTENT) is None

    def test_chain_revalidates(self):
        s4 = symmetric(4)
        for F in (NILPOTENT, SUPERSOLUBLE):
            for S in all_subgroups(s4):
                chain = is_k_f_subnormal(S, F)
                if chain is not None:
                    assert references.chain_holds(chain, references.definition_step(F.contains))

    def test_bad_chain_fails_validation(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        fake = WitnessChain(
            (cyclic_subgroup(s3, t), s3.full_subgroup()), (NORMAL_STEP,)
        )
        assert not references.chain_holds(fake, references.definition_step(lambda Q: False))


class TestFormationChains:
    def test_a4_in_s4_nilpotent(self):
        s4 = symmetric(4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        chain = is_f_subnormal(a4, NILPOTENT)
        assert chain.order_trail() == (12, 24)
        assert chain.step_kinds == (F_STEP,)

    def test_implies_kegel(self, catalog12):
        for g in catalog12.groups:
            for F in (NILPOTENT, SUPERSOLUBLE):
                for S in all_subgroups(g):
                    if is_f_subnormal(S, F) is not None:
                        assert is_k_f_subnormal(S, F) is not None


class TestSigmaChains:
    def test_everything_reachable_when_group_is_primary(self):
        sig = SigmaPartition.parse("[[2,3]]")
        s4 = symmetric(4)
        for S in all_subgroups(s4):
            assert is_sigma_subnormal(S, sig) is not None

    def test_singletons_match_nilpotent_kegel(self):
        sing = SigmaPartition()
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        assert is_sigma_subnormal(cyclic_subgroup(s3, t), sing) is None


class TestImplicationSweeps:
    def test_subnormal_implies_kegel_for_every_builtin(self, catalog12):
        sig = SigmaPartition.parse("[[2,3]]")
        formations = builtin_formations(sig)
        for g in catalog12.groups:
            for S in all_subgroups(g):
                if is_subnormal(S) is None:
                    continue
                for F in formations:
                    assert is_k_f_subnormal(S, F) is not None

    def test_sigma_iff_kegel_sigma(self, catalog12):
        for sig in (SigmaPartition.parse("[[2,3]]"), SigmaPartition()):
            nsig = sigma_nilpotent_formation(sig)
            for g in catalog12.groups:
                for S in all_subgroups(g):
                    assert (is_sigma_subnormal(S, sig) is not None) == (
                        is_k_f_subnormal(S, nsig) is not None
                    )

    def test_persistence_in_intermediate_subgroups(self, catalog12):
        # hereditary formations: a Kegel chain survives restriction to any
        # intermediate subgroup
        for g in catalog12.groups:
            for F in (NILPOTENT, SUPERSOLUBLE):
                for S in all_subgroups(g):
                    if is_k_f_subnormal(S, F) is None:
                        continue
                    for W in overgroups(S):
                        assert is_k_f_subnormal(W.localize(S), F) is not None


def _reference_chain_search(G, A, step):
    """The engine's earlier breadth-first search, kept as a reference: over
    lattice indices, found through a member-set index and an inclusion
    matrix, with no edge memo."""
    subs = all_subgroups(G)
    sets = [frozenset(s.array.tolist()) for s in subs]
    index = {m: i for i, m in enumerate(sets)}
    inclusion = [[a <= b for b in sets] for a in sets]
    start = index[frozenset(A.array.tolist())]
    overs = [j for j in range(len(subs)) if inclusion[start][j]]
    target = len(subs) - 1
    if start == target:
        return WitnessChain((subs[start],), ())
    prev = {}
    queue = [start]
    seen = {start}
    while queue:
        nxt_queue = []
        for x in queue:
            for y in overs:
                if y in seen or not inclusion[x][y] or y == x:
                    continue
                kind = step(subs[x], subs[y])
                if kind is None:
                    continue
                seen.add(y)
                prev[y] = (x, kind)
                if y == target:
                    terms, kinds = [y], []
                    while terms[-1] != start:
                        p, k = prev[terms[-1]]
                        kinds.append(k)
                        terms.append(p)
                    return WitnessChain(
                        tuple(subs[t] for t in reversed(terms)), tuple(reversed(kinds))
                    )
                nxt_queue.append(y)
        queue = nxt_queue
    return None


def _four_deciders():
    """(decider, step rule as defined, verdict set) for four chain kinds."""
    sig = SigmaPartition.parse("[[2,3]]")
    return [
        (lambda S: is_k_f_subnormal(S, NILPOTENT), references.definition_step(NILPOTENT.contains),
         lambda G: chain_subnormals(G, NILPOTENT)),
        (lambda S: is_k_f_subnormal(S, SUPERSOLUBLE),
         references.definition_step(SUPERSOLUBLE.contains),
         lambda G: chain_subnormals(G, SUPERSOLUBLE)),
        (lambda S: is_f_subnormal(S, SUPERSOLUBLE),
         references.definition_step(SUPERSOLUBLE.contains, normal_steps=False),
         lambda G: chain_subnormals(G, SUPERSOLUBLE, False)),
        (lambda S: is_sigma_subnormal(S, sig),
         references.definition_step(lambda Q: sig.one_class(Q.order)),
         lambda G: chain_subnormals(G, sig)),
    ]


def test_chain_search_matches_index_reference(catalog24):
    kinds = _four_deciders()
    found = 0
    for g in catalog24.groups:
        for S in all_subgroups(g):
            for decide, step, _ in kinds:
                chain, ref = decide(S), _reference_chain_search(g, S, step)
                assert (chain is None) == (ref is None)
                if chain is not None:
                    found += 1
                    assert all(a is b for a, b in zip(chain.terms, ref.terms))
                    assert len(chain.terms) == len(ref.terms)
                    assert chain.step_kinds == ref.step_kinds
    assert found > 0


def test_each_normality_fact_is_tested_once_across_chain_kinds(monkeypatch):
    # normality of a pair does not depend on the chain kind, and a normal
    # step and an f-step read the same core, so the four verdict sets and
    # the four deciders together compute one core, one conjugation matrix,
    # per (group, ambient, inner) triple
    tested = Counter()
    conjugates = groups._conjugates

    def record(G, ambient, inner):
        tested[G, ambient.tobytes(), inner.tobytes()] += 1
        return conjugates(G, ambient, inner)

    monkeypatch.setattr(groups, "_conjugates", record)
    s4 = symmetric(4)
    for decide, _, verdicts in _four_deciders():
        verdicts(s4)
        for S in all_subgroups(s4):
            decide(S)
    assert tested and max(tested.values()) == 1


SHIPPED = tuple(str(Path(__file__).resolve().parents[1] / "groups" / name)
                for name in ("frobenius20.grp", "frobenius21.grp"))


def test_pass_matches_the_breadth_first_search():
    # the top-down pass decides each subgroup from the verdicts above it and
    # stores the next term of its witness; a breadth-first search from each
    # subgroup is the oracle for both. Every group here is soluble, so for a
    # formation holding every C_p a normal step refines into f-steps; the
    # 2-groups, which miss C_3, tell the Kegel and F-chain kinds apart
    # (1 < S3 has a Kegel chain through C3, no F-chain)
    sig = SigmaPartition.parse("[[2,3]]")
    two_groups = Formation("2-groups", lambda G: G.order & (G.order - 1) == 0)
    kinds = [(sig, True, lambda S: is_sigma_subnormal(S, sig),
              references.definition_step(lambda Q: sig.one_class(Q.order)))]
    for F in (NILPOTENT, SUPERSOLUBLE, SOLUBLE, sigma_nilpotent_formation(sig),
              two_groups):
        kinds += [(F, True, lambda S, F=F: is_k_f_subnormal(S, F),
                   references.definition_step(F.contains)),
                  (F, False, lambda S, F=F: is_f_subnormal(S, F),
                   references.definition_step(F.contains, normal_steps=False))]
    outcomes = Counter()
    for g in catalog_generate(48, files=SHIPPED).groups:
        for steps, normal_steps, decide, step in kinds:
            found = set()
            for S in all_subgroups(g):
                chain = references.chain_search(S, step)
                assert decide(S) == chain, (g.label, steps, normal_steps, S.order)
                if chain is not None:
                    found.add(S)
            assert chain_subnormals(g, steps, normal_steps) == found
            outcomes[steps, normal_steps] += len(found) < len(all_subgroups(g))
    # G / core(S) is soluble, a one-step chain, so only the soluble kinds
    # admit every subgroup
    assert [kind for kind, n in outcomes.items() if not n] == [(SOLUBLE, True),
                                                                (SOLUBLE, False)]


def test_witnesses_are_read_off_the_pass(monkeypatch):
    # once a group's pass has run, a decider tests no step: it follows the
    # next terms the pass stored
    s4 = symmetric(4)
    kinds = _four_deciders()
    for _, _, verdicts in kinds:
        verdicts(s4)

    def step_test(*args):
        raise AssertionError("a step test after the pass")

    monkeypatch.setattr(subnormal, "core", step_test)
    monkeypatch.setattr(subnormal, "quotient", step_test)
    chains = [[decide(S) for S in all_subgroups(s4)] for decide, _, _ in kinds]
    for (_, _, verdicts), found in zip(kinds, chains):
        assert {c.terms[0] for c in found if c is not None} == verdicts(s4)


def test_sigma_step_reads_the_index(monkeypatch):
    # sigma-primary is a property of the order, so a sigma step reads
    # |Y : core_Y(X)| and builds no quotient group
    def no_quotient(*args):
        raise AssertionError("a quotient built for a sigma step")

    monkeypatch.setattr(subnormal, "quotient", no_quotient)
    for sig in (SigmaPartition.parse("[[2,3]]"), SigmaPartition()):
        step = references.definition_step(lambda Q: sig.one_class(Q.order))
        for g in (symmetric(4), dihedral(9)):
            verdicts = chain_subnormals(g, sig)
            for S in all_subgroups(g):
                chain = references.chain_search(S, step)
                assert is_sigma_subnormal(S, sig) == chain, (g.label, sig.key, S.order)
                assert (S in verdicts) == (chain is not None)


def test_verdict_set_checks_the_lattice_budget_on_a_warm_memo():
    s4 = symmetric(4)
    assert s4.full_subgroup() in chain_subnormals(s4, NILPOTENT)
    with pytest.raises(LatticeBudgetExceeded):
        chain_subnormals(s4, NILPOTENT, True, lattice_budget=10)
    with pytest.raises(LatticeBudgetExceeded):
        is_k_f_subnormal(s4.full_subgroup(), NILPOTENT, lattice_budget=10)


def test_routines_reject_subgroups_of_another_group():
    # a pair of subgroups of two equal but distinct groups would read one
    # group's indices in the other's table
    s3 = symmetric(3)
    s3b = from_cayley_table(s3.table)  # an equal copy
    a3 = generated_subgroup(s3, [e for e in range(6) if s3.element_orders[e] == 3])
    a3b = Subgroup(s3b, a3.array)
    for call in (
        lambda: a3b.intersect(a3),
        lambda: join(a3b, a3),
        lambda: groups.commutator_subgroup(s3b.full_subgroup(), s3.full_subgroup()),
        lambda: groups.normal_closure_in(s3b.full_subgroup(), s3.full_subgroup()),
    ):
        with pytest.raises(ValueError, match="another Group object"):
            call()
    with pytest.raises(ValueError, match="K <= H"):
        centralizer_of_section(a3b, s3.trivial_subgroup())


def test_single_subgroup_routines_work_in_the_subgroups_own_group():
    # a routine on one subgroup reads the group from it, so an equal copy's
    # subgroup gets answers made of the copy's subgroups
    s3 = symmetric(3)
    s3b = from_cayley_table(s3.table)
    a3b = Subgroup(s3b, generated_subgroup(
        s3, [e for e in range(6) if s3.element_orders[e] == 3]).array)
    assert [T.parent for T in chief_series_through(a3b)] == [s3b] * 3
    assert centralizer(a3b).parent is s3b and quotient(a3b)[0].order == 2
    assert [T.parent for T in is_subnormal(a3b).terms] == [s3b] * 2
