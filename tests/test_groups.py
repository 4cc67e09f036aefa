import ast
import gc
import inspect
import weakref
from collections import Counter
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from finform import (
    Group,
    NotAGroup,
    NotNormal,
    OrderCapExceeded,
    Subgroup,
    alternating,
    automorphism_group,
    catalog_generate,
    center,
    centralizer,
    centralizer_of_section,
    chief_series_through,
    core,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    from_cayley_table,
    from_permutation_gens,
    generated_subgroup,
    is_isomorphic,
    load_group_file,
    normal_closure,
    normal_subgroups,
    quaternion,
    quotient,
    semidirect_product,
    semidirect_section,
    symmetric,
    upper_central_series,
)
from finform import construct, files, groups
from finform.construct import SECTION_PRODUCT_CAP
from finform.formations import section_product
from finform.groups import cyclic_subgroup, derived_series, join
from finform.lattice import all_subgroups

import oracles
import references

GROUP_FILES = sorted((Path(__file__).resolve().parent.parent / "groups").glob("*.grp"))


def subgroup_of_order(G, n):
    for a in range(G.order):
        for b in range(G.order):
            s = generated_subgroup(G, [a, b])
            if s.order == n:
                return s
    raise AssertionError(f"no subgroup of order {n}")


def v4_in(S4):
    return min(
        (
            normal_closure(S4, [e])
            for e in range(S4.order)
            if S4.element_orders[e] == 2
        ),
        key=lambda s: s.order,
    )


class TestFromCayleyTable:
    def test_trivial(self):
        assert from_cayley_table([[0]]).order == 1

    def test_c2(self):
        g = from_cayley_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.element_orders.tolist() == [1, 2]

    def test_s3_from_composed_permutations(self):
        from itertools import permutations

        elems = sorted(permutations(range(3)))
        idx = {p: i for i, p in enumerate(elems)}
        table = [
            [idx[tuple(q[p[i]] for i in range(3))] for q in elems] for p in elems
        ]
        g = from_cayley_table(table)
        assert g.order == 6
        assert sorted(g.element_orders.tolist()) == [1, 2, 2, 2, 3, 3]

    def test_identity_relocated(self):
        # C2 written with the identity at index 1
        g = from_cayley_table([[1, 0], [0, 1]])
        assert g.order == 2 and g.mul(0, 0) == 0

    def test_not_associative_rejected(self):
        bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(NotAGroup):
            from_cayley_table(bad)

    def test_no_identity_rejected(self):
        with pytest.raises(NotAGroup):
            from_cayley_table([[1, 0], [1, 0]])

    def test_associativity_failure_has_a_replayable_witness(self):
        # a Latin square with identity 0 (a loop) that is not associative:
        # (1*1)*2 = 2 but 1*(1*2) = 4
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
        with pytest.raises(NotAGroup, match="associativity") as err:
            Group(loop)
        a, b, c = err.value.witness
        assert (a, b, c) == (1, 1, 2)
        assert (loop[loop[a][b]][c], loop[a][loop[b][c]]) == (2, 4)

    def test_identity_failure_has_a_witness(self):
        table = [[1, 0], [0, 1]]
        with pytest.raises(NotAGroup, match="identity") as err:
            Group(table)
        (g,) = err.value.witness
        assert table[0][g] != g or table[g][0] != g

    @pytest.mark.parametrize("build", [from_cayley_table, Group])
    @pytest.mark.parametrize("table", [[[0, 1], [1, 0.7]], [["0", "1"], ["1", "0"]],
                                       [[True, False], [False, True]],
                                       [["x", "1"], ["1", "0"]], [[0, 1], [1, None]]])
    def test_entries_that_are_not_integers_rejected(self, build, table):
        # cast to an int type, the first three read as C2 and the last two
        # raise numpy's own ValueError and TypeError
        with pytest.raises(NotAGroup, match="table entries are not integers"):
            build(table)

    @pytest.mark.parametrize("build", [from_cayley_table, Group])
    def test_entries_beyond_int32_are_out_of_range(self, build):
        # an int64 array cast to int32 wraps 2**32 to 0; 2**70 fits no int type
        for table in ([[0, 1], [1, 2**32]], np.array([[0, 1], [1, 2**32]]), [[0, 1], [1, 2**70]]):
            with pytest.raises(NotAGroup, match="out of range"):
                build(table)

    def test_ragged_table_rejected(self):
        # numpy cannot cast rows of unequal lengths to an array
        with pytest.raises(NotAGroup, match="table is not square"):
            from_cayley_table([[0, 1], [1]])

    def test_tables_that_are_not_square_or_are_empty_rejected(self):
        for table in ([[0, 1]], [0]):
            with pytest.raises(NotAGroup, match="^table is not square$"):
                from_cayley_table(table)
        with pytest.raises(NotAGroup, match="^empty table$"):
            from_cayley_table(np.zeros((0, 0), dtype=np.int64))


def _random_loop(n, seed):
    """A seeded random Latin square of order n with identity 0, filled
    cell by cell with backtracking."""
    rng = np.random.default_rng(seed)
    table = [list(range(n))] + [[r] + [None] * (n - 1) for r in range(1, n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        r, c = cells[k]
        used = set(table[r][:c]) | {table[i][c] for i in range(r)}
        for x in rng.permutation([x for x in range(n) if x not in used]).tolist():
            table[r][c] = x
            if fill(k + 1):
                return True
        table[r][c] = None
        return False

    assert fill(0)
    return np.array(table)


# Non-associative loops: the 5-element loop, its direct products with C2, S3
# and D8 by the pair-table formula, and seeded random Latin squares with
# identity 0. In the loop of seed 6002, 1 generates everything only when
# products are taken on both sides.
LOOP_PANEL = {
    "loop5": np.array(oracles.LOOP5),
    **{f"loop5x{H.label}": references.pair_product_table(oracles.LOOP5, H.table)
       for H in (cyclic(2), symmetric(3), dihedral(4))},
    **{f"latin{n}-{seed}": _random_loop(n, seed)
       for seed, n in enumerate((5, 5, 6, 6, 7, 7, 8, 9, 10, 12))},
    "latin6-6002": _random_loop(6, 6002),
}


@pytest.mark.parametrize("name", LOOP_PANEL)
def test_associativity_verdict_and_witness_match_the_oracle(name):
    table = LOOP_PANEL[name]
    witness = oracles.first_associativity_failure(table.tolist())
    assert witness is not None
    assert references.first_associativity_failure(table) == witness
    a, b, c = witness
    for build in (Group, from_cayley_table):
        with pytest.raises(NotAGroup) as err:
            build(table)
        assert err.value.witness == witness
        assert str(err.value) == f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})"


@pytest.mark.parametrize("name", LOOP_PANEL)
def test_witness_replays_on_a_table_whose_identity_is_not_at_0(name):
    # the identity moved to e by the transposition (0 e); from_cayley_table
    # swaps it back to validate, and names the caller's first failing triple
    table = LOOP_PANEL[name]
    for e in (1, len(table) - 1):
        perm = np.arange(len(table))
        perm[[0, e]] = perm[[e, 0]]
        moved = perm[table[np.ix_(perm, perm)]]
        witness = oracles.first_associativity_failure(moved.tolist())
        with pytest.raises(NotAGroup) as err:
            from_cayley_table(moved)
        assert err.value.witness == witness
        a, b, c = witness
        assert str(err.value) == f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})"
        if name == "loop5" and e == 1:
            assert witness == (0, 0, 2)


def test_relabelled_catalog_tables_are_accepted():
    # each table relabelled by a seeded bijection of the elements fixing 0
    rng = np.random.default_rng(60)
    for G in catalog_generate(60).groups:
        perm = np.concatenate(([0], 1 + rng.permutation(G.order - 1)))
        inv = np.argsort(perm)
        table = perm[G.table[np.ix_(inv, inv)]]
        assert references.first_associativity_failure(table) is None
        assert np.array_equal(Group(table).table, table)
        assert np.array_equal(from_cayley_table(table).table, table)


@pytest.mark.parametrize(
    "table",
    [*LOOP_PANEL.values(), symmetric(4).table, elem_abelian(2, 4).table, quaternion(16).table],
    ids=[*LOOP_PANEL, "S4", "elab(2,4)", "Q16"],
)
def test_light_generators_are_greedy_and_close_on_both_sides(table):
    # each generator is the least element outside the two-sided closure of
    # the ones before it, and together they reach every element
    rows = table.tolist()
    gens = groups._magma_generators(np.ascontiguousarray(table, dtype=np.int32))
    for i, g in enumerate(gens):
        assert g == min(set(range(len(rows))) - oracles.magma_closure(gens[:i], rows))
    assert oracles.magma_closure(gens, rows) == set(range(len(rows)))


class TestPermutationClosure:
    def test_three_cycle(self):
        g = from_permutation_gens(3, [(1, 2, 0)])
        assert g.order == 3

    def test_s3_generators(self):
        g = from_permutation_gens(3, [(1, 0, 2), (1, 2, 0)])
        assert g.order == 6

    def test_double_transpositions(self):
        g = from_permutation_gens(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        assert g.order == 4
        assert sorted(g.element_orders.tolist()) == [1, 2, 2, 2]

    def test_order_cap(self):
        with pytest.raises(OrderCapExceeded):
            from_permutation_gens(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], order_cap=100)

    def test_rejects_non_permutation(self):
        with pytest.raises(NotAGroup):
            from_permutation_gens(3, [(0, 0, 1)])

    def test_table_matches_dict_lookup_reference(self, monkeypatch):
        seen = []
        real = construct.from_permutation_gens

        def recording(degree, gens, *args, **kwargs):
            gens = [tuple(g) for g in gens]
            seen.append((degree, gens))
            return real(degree, gens, *args, **kwargs)

        monkeypatch.setattr(construct, "from_permutation_gens", recording)
        monkeypatch.setattr(files, "from_permutation_gens", recording)
        built = [symmetric(4), alternating(5), symmetric(5), alternating(6)]
        built += [load_group_file(path) for path in GROUP_FILES]
        assert [G.order for G in built] == [24, 60, 120, 360, 20, 21]
        for G, (degree, gens) in zip(built, seen, strict=True):
            assert np.array_equal(G.table, references.permutation_gens_table(degree, gens)), G.label

    def test_automorphism_table_matches_loop_reference(self):
        for G in (elem_abelian(2, 3), dihedral(4), symmetric(4), cyclic(15)):
            aut, action = automorphism_group(G)
            perms = list(action)
            assert np.array_equal(aut.table, references.automorphism_table(perms)), G.label
        assert aut.order == 8  # Aut(C15) = C2 x C4


class TestFamilies:
    def test_cyclic_one_is_trivial(self):
        assert cyclic(1).order == 1

    def test_symmetric_four(self):
        assert symmetric(4).order == 24

    @pytest.mark.parametrize("build, n, order, label", [
        (symmetric, 1, 1, "S1"), (symmetric, 2, 2, "S2"),
        (alternating, 1, 1, "A1"), (alternating, 2, 1, "A2"), (alternating, 3, 3, "A3"),
    ])
    def test_small_degrees(self, build, n, order, label):
        g = build(n)
        assert (g.order, g.label) == (order, label)

    def test_quaternion_single_involution(self):
        q = quaternion(8)
        assert q.order == 8
        assert int((q.element_orders == 2).sum()) == 1

    def test_generalized_quaternion(self):
        q16 = quaternion(16)
        assert q16.order == 16
        assert int((q16.element_orders == 2).sum()) == 1

    @pytest.mark.parametrize("build, args", [
        (cyclic, (3.5,)), (cyclic, (True,)), (cyclic, ("3",)), (dihedral, (2.5,)),
        (quaternion, (8.0,)), (symmetric, (3.0,)), (alternating, (False,)),
        (elem_abelian, (2.0, 2)), (elem_abelian, (2, 2.0)), (elem_abelian, (True, 2)),
    ])
    def test_sizes_that_are_not_integers_rejected(self, build, args):
        with pytest.raises(ValueError, match="is not an integer"):
            build(*args)

    @pytest.mark.parametrize("build, args, message", [
        (cyclic, (0,), "cyclic group order must be >= 1"),
        (dihedral, (0,), "dihedral parameter must be >= 1"),
        (quaternion, (12,), "quaternion order must be a power of two >= 8"),
        (symmetric, (0,), "symmetric degree must be >= 1"),
        (alternating, (0,), "alternating degree must be >= 1"),
        (elem_abelian, (2, 0), "need a prime p >= 2 and exponent k >= 1"),
    ])
    def test_sizes_out_of_range_rejected(self, build, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(*args)

    def test_sizes_may_be_numpy_integers(self):
        assert cyclic(np.int64(3)).label == "C3"
        assert elem_abelian(np.int32(2), np.uint8(3)).label == "elab(2,3)"

    def test_dihedral_labels_by_order(self):
        assert dihedral(6).order == 12
        assert dihedral(6).label == "D12"

    def test_two_part_table_matches_loop_reference(self):
        for n in range(1, 65):
            for flip in sorted({0, n // 2}):
                got = construct._two_part_table(n, flip)
                assert got.dtype == np.int32
                assert np.array_equal(got, references.two_part_table(n, flip)), (n, flip)

    def test_elem_abelian(self):
        g = elem_abelian(3, 2)
        assert g.order == 9
        assert set(g.element_orders.tolist()) == {1, 3}
        for p in (4, 9, 15):
            with pytest.raises(ValueError, match=f"^{p} is not prime$"):
                elem_abelian(p, 2)


class TestDirectProduct:
    def test_with_trivial(self):
        s3 = symmetric(3)
        assert is_isomorphic(direct_product(s3, cyclic(1)), s3) is not None

    def test_klein(self):
        g = direct_product(cyclic(2), cyclic(2))
        assert g.order == 4
        assert int((g.element_orders == 2).sum()) == 3

    def test_coprime_cyclics(self):
        g = direct_product(cyclic(2), cyclic(3))
        assert int(g.element_orders.max()) == 6

    def test_matches_two_gather_reference(self, catalog24):
        pairs = 0
        for G, H in product(catalog24, repeat=2):
            if G.order * H.order <= 96:
                P = direct_product(G, H)
                assert np.array_equal(P.table, references.direct_product_table(G, H)), (
                    G.label, H.label)
                pairs += 1
        assert pairs == 912


class TestQuotient:
    def test_by_trivial(self):
        s3 = symmetric(3)
        q, proj = quotient(s3.trivial_subgroup())
        assert q.order == 6 and oracles.is_isomorphism(s3, q, proj)

    def test_s3_by_a3(self):
        s3 = symmetric(3)
        a3 = generated_subgroup(s3, [e for e in range(6) if s3.element_orders[e] == 3])
        q, proj = quotient(a3)
        assert q.order == 2
        assert Subgroup(s3, np.flatnonzero(proj == 0)) == a3
        assert set(proj.tolist()) == {0, 1}
        assert oracles.is_homomorphism(s3, q, proj)

    def test_projection_is_read_only(self):
        s4 = symmetric(4)
        _, proj = quotient(v4_in(s4))
        assert proj.dtype == np.int32 and not proj.flags.writeable
        with pytest.raises(ValueError):
            proj[0] = 1
        assert quotient(v4_in(s4))[1] is proj

    def test_s4_by_v4_nonabelian(self):
        s4 = symmetric(4)
        q, _ = quotient(v4_in(s4))
        assert q.order == 6
        assert not q.is_abelian()

    def test_not_normal(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        with pytest.raises(NotNormal):
            quotient(cyclic_subgroup(s3, t))

    def test_not_normal_witness_is_first_failing_pair(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        N = cyclic_subgroup(s3, t)
        with pytest.raises(NotNormal) as err:
            quotient(N)
        g, x = err.value.witness
        assert x in N and s3.conj(x, g) not in N
        first = next(
            (h, y) for h in range(s3.order) for y in N.array.tolist()
            if s3.conj(y, h) not in N
        )
        assert (g, x) == first

    def test_every_normality_guard_carries_a_witness(self):
        s4 = symmetric(4)
        d8 = subgroup_of_order(s4, 8)
        for call in (
            lambda: quotient(d8),
            lambda: centralizer_of_section(d8, s4.trivial_subgroup()),
            lambda: centralizer_of_section(s4.full_subgroup(), d8),
            lambda: chief_series_through(d8),
        ):
            with pytest.raises(NotNormal) as err:
                call()
            g, x = err.value.witness
            assert x in d8 and s4.conj(x, g) not in d8


class TestCentralizersAndCores:
    def test_centralizer_of_trivial(self):
        s4 = symmetric(4)
        assert centralizer(s4.trivial_subgroup()).order == 24

    def test_centralizer_of_a4_in_s4(self):
        s4 = symmetric(4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        assert centralizer(a4).order == 1

    def test_normal_closure_of_transposition(self):
        s4 = symmetric(4)
        transposition = next(
            e
            for e in range(24)
            if s4.element_orders[e] == 2 and normal_closure(s4, [e]).order == 24
        )
        assert normal_closure(s4, [transposition]).order == 24

    @pytest.mark.parametrize("close", [generated_subgroup, normal_closure])
    @pytest.mark.parametrize("index", [-1, 6, 9])
    def test_closures_reject_out_of_range_elements(self, close, index):
        with pytest.raises(ValueError, match="out of range"):
            close(symmetric(3), [1, index])

    @pytest.mark.parametrize("call", [
        lambda G, i: G.mul(i, 1), lambda G, i: G.mul(1, i), lambda G, i: G.inv(i),
        lambda G, i: G.power(i, 3), lambda G, i: G.power(i, -2),
        lambda G, i: G.conj(i, 1), lambda G, i: G.conj(1, i)])
    @pytest.mark.parametrize("index", [-1, -2, 6, 2**70])
    def test_arithmetic_rejects_out_of_range_elements(self, call, index):
        with pytest.raises(ValueError, match="out of range"):
            call(symmetric(3), index)

    @pytest.mark.parametrize("call", [
        lambda G, x: generated_subgroup(G, [x]), lambda G, x: normal_closure(G, [1, x]),
        lambda G, x: G.mul(x, 1), lambda G, x: G.mul(1, x), lambda G, x: G.inv(x),
        lambda G, x: G.power(x, 3), lambda G, x: G.power(1, x),
        lambda G, x: G.conj(x, 1), lambda G, x: G.conj(1, x),
        lambda G, x: Subgroup(G, [0, x])])
    @pytest.mark.parametrize("x", [1.7, 1.0, True, np.bool_(True), np.float64(2), "1"])
    def test_elements_that_are_not_integers_rejected(self, call, x):
        # a cast to int would read each of these as an element index
        with pytest.raises(ValueError, match="is not an integer"):
            call(symmetric(3), x)

    @pytest.mark.parametrize("x", [1.5, 1.0, True, np.bool_(False), "0", None])
    def test_non_integers_are_never_members(self, x):
        assert x not in symmetric(3).full_subgroup()
        assert 1 in symmetric(3).full_subgroup() and np.int32(5) in symmetric(3).full_subgroup()

    def test_core_of_itself(self):
        s4 = symmetric(4)
        assert core(s4.full_subgroup(), s4.full_subgroup()).order == 24

    def test_core_of_sylow2(self):
        s4 = symmetric(4)
        d4 = subgroup_of_order(s4, 8)
        assert core(s4.full_subgroup(), d4) == v4_in(s4)

    def test_core_needs_inner_inside_ambient(self):
        s4 = symmetric(4)
        with pytest.raises(ValueError, match="core requires inner <= ambient"):
            core(subgroup_of_order(s4, 8), s4.full_subgroup())

    def test_negative_power_is_the_inverse(self):
        s3 = symmetric(3)
        assert all(s3.power(x, -1) == s3.inv(x) for x in range(6))

    def test_core_trivial(self):
        s3 = symmetric(3)
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        assert core(s3.full_subgroup(), cyclic_subgroup(s3, t)).order == 1

    def test_section_centralizers(self):
        s4 = symmetric(4)
        v4 = v4_in(s4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        assert centralizer_of_section(v4, v4).order == 24  # trivial section
        assert centralizer_of_section(v4, s4.trivial_subgroup()) == v4
        assert centralizer_of_section(a4, v4) == a4


class TestSemidirectSection:
    def test_s3_reconstruction(self):
        s3 = symmetric(3)
        a3 = generated_subgroup(s3, [e for e in range(6) if s3.element_orders[e] == 3])
        p = semidirect_section(a3, s3.trivial_subgroup())
        assert p.order == 6
        assert is_isomorphic(p, s3) is not None

    def test_trivial_section_collapses_to_quotient(self):
        # a trivial section is centralized by all of S4, and A4/V4 by A4 alone
        s4 = symmetric(4)
        v4 = v4_in(s4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        assert semidirect_section(v4, v4).order == 1
        assert is_isomorphic(semidirect_section(a4, v4), symmetric(3)) is not None

    def test_s4_reconstruction(self):
        s4 = symmetric(4)
        v4 = v4_in(s4)
        p = semidirect_section(v4, s4.trivial_subgroup())
        assert p.order == 24
        assert is_isomorphic(p, s4) is not None

    def test_centralizer_of_section_is_computed_once(self, monkeypatch):
        # memoised, so semidirect_section reads the centralizer a chief rule
        # or an earlier product already computed
        from finform import groups

        s4 = symmetric(4)
        v4 = v4_in(s4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        first = centralizer_of_section(a4, v4)

        def no_conjugation(*args):
            raise AssertionError("conjugation matrix built again")

        monkeypatch.setattr(groups, "_conjugates", no_conjugation)
        assert centralizer_of_section(a4, v4) is first

    def test_one_cap_for_both_entry_points(self):
        # the section product has one guard, SECTION_PRODUCT_CAP, whichever
        # routine builds it: S4's whole section (order 576) fits, S5's
        # (order 14,400) does not
        s4, s5 = symmetric(4), symmetric(5)
        whole, one = s4.full_subgroup(), s4.trivial_subgroup()
        assert semidirect_section(whole, one) is section_product(whole, one)
        assert section_product(whole, one).order == 576
        messages = set()
        for build in (semidirect_section, section_product):
            with pytest.raises(OrderCapExceeded) as err:
                build(s5.full_subgroup(), s5.trivial_subgroup())
            messages.add(str(err.value))
        assert messages == {f"order 14400 exceeds cap {SECTION_PRODUCT_CAP}"}
        with pytest.raises(TypeError):
            semidirect_section(whole, one, order_cap=None)

    def test_rejects_non_normal(self):
        s4 = symmetric(4)
        d4 = subgroup_of_order(s4, 8)
        with pytest.raises(NotNormal):
            semidirect_section(d4, s4.trivial_subgroup())

    def test_matches_reference_route_at_the_centralizer(self, catalog24):
        # covers both routes: sections G centralizes, H = K among them, are
        # their own product, and the rest are built with an acting quotient
        cases = Counter()
        for g in catalog24.groups + [direct_product(alternating(5), cyclic(2))]:
            normals = normal_subgroups(g)
            for H, K in product(normals, normals):
                if K <= H:
                    C = centralizer_of_section(H, K)
                    if H.order // K.order * (g.order // C.order) <= SECTION_PRODUCT_CAP:
                        want = references.semidirect_section(g, H, K, C)
                        got = semidirect_section(H, K)
                        assert np.array_equal(got.table, want.table), (g.label, H, K)
                        cases["all"] += 1
                        cases["centralized"] += C.order == g.order
                        cases["trivial"] += H == K
        # 2,208 in catalog_generate(24), 8 in A5xC2
        assert cases == {"all": 2216, "centralized": 2008, "trivial": 501}

    def test_centralized_section_is_its_own_product(self, catalog12, monkeypatch):
        # with a one-element acting group the product is H/K, shared with
        # the quotient of H as a group, and no pair table is filled
        def refuse(*args):
            raise AssertionError("pair table filled for a centralized section")

        monkeypatch.setattr(construct, "_pair_table", refuse)
        cases = 0
        for g in catalog12:
            normals = normal_subgroups(g)
            for H, K in product(normals, normals):
                if K <= H and centralizer_of_section(H, K) == g.full_subgroup():
                    got = semidirect_section(H, K)
                    assert got is quotient(H.localize(K))[0], (g.label, H, K)
                    cases += 1
        assert cases == 284

    def test_builds_no_derived_group_on_the_way(self, monkeypatch):
        # the product is read off G's table: no subgroup as a group, no
        # quotient group and no checked semidirect product in between
        def refuse(*args, **kwargs):
            raise AssertionError("section product built through a derived group")

        monkeypatch.setattr(groups.Subgroup, "as_group", refuse)
        monkeypatch.setattr(groups, "quotient", refuse)
        monkeypatch.setattr(construct, "quotient", refuse, raising=False)  # if imported again
        monkeypatch.setattr(construct, "semidirect_product", refuse)
        for g in (symmetric(4), direct_product(dihedral(4), cyclic(3))):
            normals = normal_subgroups(g)
            built = [section_product(H, K) for H, K in product(normals, normals) if K <= H]
            assert len(built) >= 10 and max(p.order for p in built) > g.order


class TestSemidirectProduct:
    def test_table_matches_pair_definition(self):
        # Hol(N) = N x| Aut(N) against the pair multiplication rule
        for N in (cyclic(3), cyclic(5), symmetric(3), elem_abelian(2, 2)):
            aut, action = automorphism_group(N)
            P = semidirect_product(N, aut, action)
            elems, mul = oracles.semidirect_pairs(
                range(N.order), N.mul, range(aut.order), aut.mul,
                lambda h, n: int(action[h, n]))
            code = {(n, h): n * aut.order + h for n, h in elems}
            for a, b in product(elems, elems):
                assert P.table[code[a], code[b]] == code[mul(a, b)], (N.label, a, b)

    def test_rejects_bad_actions(self):
        c3, c2, c4 = cyclic(3), cyclic(2), cyclic(4)
        inversion = [0, 2, 1]
        assert semidirect_product(c3, c2, [[0, 1, 2], inversion]).order == 6
        with pytest.raises(ValueError, match="wrong shape"):
            semidirect_product(c3, c2, [[0, 1, 2]])
        with pytest.raises(NotAGroup, match="identity"):
            semidirect_product(c3, c2, [inversion, [0, 1, 2]])
        with pytest.raises(NotAGroup, match="automorphisms"):
            semidirect_product(c3, c2, [[0, 1, 2], [1, 0, 2]])
        with pytest.raises(NotAGroup, match="homomorphism"):
            semidirect_product(c3, c4, [[0, 1, 2], inversion, inversion, inversion])
        for wild in (7, -1):
            with pytest.raises(NotAGroup, match="out of range"):
                semidirect_product(c3, c2, [[0, 1, 2], [0, 2, wild]])


class TestSubgroupBasics:
    def test_requires_identity(self):
        s3 = symmetric(3)
        with pytest.raises(NotAGroup):
            Subgroup(s3, [1, 2])

    def test_requires_closure(self):
        s3 = symmetric(3)
        elements_of_order_2 = [e for e in range(6) if s3.element_orders[e] == 2]
        with pytest.raises(NotAGroup):
            Subgroup(s3, [0] + elements_of_order_2[:2])

    def test_public_constructors_always_check_closure(self):
        # no keyword interns an unchecked member set, which a later checked
        # construction would hand back without raising
        s3 = symmetric(3)
        with pytest.raises(TypeError):
            Subgroup(s3, [0, 1, 2], validate=False)
        with pytest.raises(NotAGroup, match="not closed"):
            Subgroup(s3, [0, 1, 2])

    def test_localize_then_lift_is_identity(self):
        s4 = symmetric(4)
        subgroups = all_subgroups(s4)
        for H in subgroups:
            for K in subgroups:
                if K <= H:
                    local = H.localize(K)
                    assert local.parent is H.as_group() and local.order == K.order
                    assert H.lift(local) == K
                    with pytest.raises(ValueError):
                        H.lift(K)  # a subgroup of S4, not of H.as_group()
                else:
                    with pytest.raises(ValueError):
                        H.localize(K)

    def test_as_group_round_trip(self):
        s4 = symmetric(4)
        d4 = subgroup_of_order(s4, 8)
        inner = d4.as_group()
        assert inner.order == 8
        assert d4.lift(inner.full_subgroup()) == d4

    def test_join(self):
        s3 = symmetric(3)
        a3 = generated_subgroup(s3, [e for e in range(6) if s3.element_orders[e] == 3])
        t = next(e for e in range(6) if s3.element_orders[e] == 2)
        c2 = cyclic_subgroup(s3, t)
        assert join(a3, c2).order == 6

    def test_trivial_section_is_centralized_without_conjugation(self, monkeypatch):
        s4 = symmetric(4)
        normals = normal_subgroups(s4)
        t = next(e for e in range(24) if s4.element_orders[e] == 2)
        c2 = cyclic_subgroup(s4, t)
        assert all(N.is_normal() for N in normals) and not c2.is_normal()

        def no_conjugation(*args):
            raise AssertionError("conjugation matrix built for a trivial section")

        monkeypatch.setattr(groups, "_conjugates", no_conjugation)
        for N in normals:
            assert centralizer_of_section(N, N) is s4.full_subgroup()
        monkeypatch.undo()  # the NotNormal witness is read off the conjugates
        with pytest.raises(NotNormal, match="H is not normal"):
            centralizer_of_section(c2, c2)

    def test_centralizer_of_section_validates_the_section(self):
        s4 = symmetric(4)
        v4 = v4_in(s4)
        d8 = subgroup_of_order(s4, 8)
        assert centralizer_of_section(v4, s4.trivial_subgroup()) == v4
        with pytest.raises(ValueError, match="K <= H"):
            centralizer_of_section(v4, d8)  # V4 does not contain D8
        with pytest.raises(NotNormal, match="K is not normal"):
            centralizer_of_section(s4.full_subgroup(), d8)


class TestInternedSubgroups:
    def test_operators_match_frozenset_reference(self):
        for g in catalog_generate(16).groups:
            subs = all_subgroups(g)
            ref = {s: frozenset(s.array.tolist()) for s in subs}
            for a in subs:
                assert a.order == len(ref[a])
                assert [x in a for x in range(g.order)] == [x in ref[a] for x in range(g.order)]
                for b in subs:
                    assert (a <= b) == (ref[a] <= ref[b])
                    assert (a < b) == (ref[a] < ref[b])
                    assert (a == b) == (ref[a] == ref[b])
                    assert frozenset(a.intersect(b).array.tolist()) == ref[a] & ref[b]
                    if b <= a:
                        local = a.localize(b)
                        assert frozenset(a.array[local.array].tolist()) == ref[b]
                        assert a.lift(local) is b

    def test_member_set_is_one_object(self):
        s4 = symmetric(4)
        xs = v4_in(s4).array.tolist()
        assert Subgroup(s4, xs) is Subgroup(s4, reversed(xs))
        assert Subgroup(s4, xs) is v4_in(s4)
        assert Subgroup(s4, xs) != Subgroup(from_cayley_table(s4.table), xs)

    def test_meet_is_the_lattice_member(self):
        lat = all_subgroups(symmetric(4))
        for a in lat:
            for b in lat:
                meet = a.intersect(b)
                assert any(s is meet for s in lat)

    def test_validate_errors(self):
        s3 = symmetric(3)
        with pytest.raises(NotAGroup, match="must contain the identity"):
            Subgroup(s3, [1, 2])
        with pytest.raises(NotAGroup, match="must contain the identity"):
            Subgroup(s3, [])
        with pytest.raises(NotAGroup, match="must contain the identity"):
            Subgroup(s3, [-2**70, 0])
        with pytest.raises(ValueError, match="index out of range"):
            Subgroup(s3, [0, 6])
        with pytest.raises(ValueError, match="index out of range"):
            Subgroup(s3, [0, 2**70])
        with pytest.raises(NotAGroup, match="size 4 does not divide group order 6"):
            Subgroup(s3, [0, 1, 2, 3])
        involutions = [e for e in range(6) if s3.element_orders[e] == 2]
        members = sorted([0] + involutions[:2])
        with pytest.raises(NotAGroup, match="not closed") as err:
            Subgroup(s3, members)
        # the first (a, b) in row-major order over the sorted members
        first = next((a, b) for a in members for b in members if s3.mul(a, b) not in members)
        assert err.value.witness == first
        with pytest.raises(NotAGroup, match="not closed"):
            Subgroup(s3, members)  # a failed check leaves nothing behind

    def test_meet_keeps_its_memos(self, monkeypatch):
        from finform import NILPOTENT, formations, groups

        # a cold registry: no group with the meet's table, left alive by an
        # earlier test, brings its hypercentre along
        monkeypatch.setattr(groups, "_LIVE_GROUPS", weakref.WeakValueDictionary())
        checks = []
        original = formations.is_f_hypercentral
        monkeypatch.setattr(formations, "is_f_hypercentral",
                            lambda *args: checks.append(args) or original(*args))
        s4 = symmetric(4)
        a4 = Subgroup(s4, [e for e in range(24) if s4.element_orders[e] in (1, 3)]
                      + v4_in(s4).array.tolist())
        d8 = subgroup_of_order(s4, 8)
        meet = d8.intersect(a4).as_group()
        assert d8.intersect(a4).as_group() is meet
        first = formations.hypercentre(meet, NILPOTENT)
        assert formations.hypercentre(d8.intersect(a4).as_group(), NILPOTENT) is first
        assert len(checks) == 1


class TestSeriesHelpers:
    def test_upper_central_series_of_d8(self):
        d8 = dihedral(4)
        series = upper_central_series(d8)
        assert [s.order for s in series] == [1, 2, 8]

    def test_derived_series_of_s4(self):
        s4 = symmetric(4)
        assert [s.order for s in derived_series(s4)] == [24, 12, 4, 1]

    def test_center_examples(self):
        assert center(symmetric(4)).order == 1
        assert center(quaternion(8)).order == 2


def test_closure_matches_oracle(catalog24):
    # generated_subgroup's closure against the brute-force set closure, on
    # seeded random generator sets of one to three elements
    rng = np.random.default_rng(2005)
    s4 = symmetric(4)
    section = semidirect_section(s4.full_subgroup(), s4.trivial_subgroup())
    assert section.order >= 300
    panel = catalog24.groups + [alternating(5), section]
    for g in panel:
        table = g.table.tolist()
        for _ in range(6):
            gens = rng.integers(0, g.order, size=int(rng.integers(1, 4))).tolist()
            want = oracles.closure(gens, lambda a, b: table[a][b], 0)
            assert set(generated_subgroup(g, gens).array.tolist()) == want, (g.label, gens)


def test_cosets_match_inline_least_reference(catalog24):
    # _cosets reads least elements from an array over all of G, and N normal
    # in ``within`` is all its contract asks, so S4's lattice pairs with N
    # normal in ``within`` but not in S4 are checked too
    pairs = [(g, N, W) for g in catalog24.groups
             for N, W in product(normal_subgroups(g), repeat=2) if N <= W]
    s4 = symmetric(4)
    subs = all_subgroups(s4)
    local = [(s4, N, W) for N, W in product(subs, repeat=2)
             if N <= W and groups.core(W, N) is N and not N.is_normal()]
    for g, N, W in pairs + local:
        got, want = groups._cosets(N, W), references.cosets(g, N, W)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (g.label, N, W)
    assert (len(pairs), len(local)) == (2208, 54)


def test_exhaustive_axioms_small_groups():
    # full associativity/identity/inverse checks run at construction
    for g in (symmetric(4), dihedral(6), quaternion(16), elem_abelian(2, 4)):
        table = g.table
        Group(table, validate=True)  # would raise on any violation
        n = g.order
        assert np.array_equal(table[0], np.arange(n))
        assert all(g.mul(x, g.inv(x)) == 0 for x in range(n))
        for x in range(n):
            k = int(g.element_orders[x])
            assert g.power(x, k) == 0
            assert all(g.power(x, j) != 0 for j in range(1, k))


def test_memoised_results_are_per_group_objects():
    from finform import (
        NILPOTENT,
        SUPERSOLUBLE,
        all_subgroups,
        automorphisms,
        chief_series_through,
        frattini,
        hypercentre,
        normal_subgroups,
        residual,
    )
    from finform.formations import section_product
    from finform.morphisms import _word_script, fingerprint

    def v4(X):
        return normal_subgroups(X)[1]

    lookups = {
        "full_subgroup": lambda X: X.full_subgroup(),
        "conjugacy_classes": lambda X: X.conjugacy_classes(),
        "class_of": lambda X: X.class_of(),
        "center": center,
        "derived_series": derived_series,
        "quotient": lambda X: quotient(v4(X)),
        "Subgroup.mask": lambda X: v4(X).mask(),
        "all_subgroups": all_subgroups,
        "normal_subgroups": normal_subgroups,
        "chief_series_through": lambda X: chief_series_through(v4(X)),
        "frattini": frattini,
        "fingerprint": fingerprint,
        "word_script": _word_script,
        "automorphisms": automorphisms,
        "residual": lambda X: residual(X, SUPERSOLUBLE),
        "hypercentre": lambda X: hypercentre(X, NILPOTENT),
    }
    # groups derived from a group are shared per table, so an equal copy of
    # the parent reaches the same objects
    derived = {
        "quotient group": lambda X: quotient(v4(X))[0],
        "Subgroup.as_group": lambda X: v4(X).as_group(),
        "section_product": lambda X: section_product(v4(X), X.trivial_subgroup()),
    }
    G = symmetric(4)
    H = from_cayley_table(G.table)
    for name, lookup in (lookups | derived).items():
        first = lookup(G)
        assert lookup(G) is first, name
        assert (lookup(H) is first) == (name in derived), name


class TestDerivedGroups:
    """Every live group is registered under its Cayley table, first built
    first, and quotients, subgroups as groups and semidirect products are read
    from that weak registry; public constructors stay fresh."""

    @pytest.fixture
    def registry(self, monkeypatch):
        from finform import groups

        cold = type(groups._LIVE_GROUPS)()  # empty, and as weak as the real one
        monkeypatch.setattr(groups, "_LIVE_GROUPS", cold)
        return cold

    @staticmethod
    def v4(X):
        from finform import normal_subgroups

        return normal_subgroups(X)[1]

    @staticmethod
    def count_tables(monkeypatch) -> Counter:
        """Group constructions per table from now on, outside the
        equivalent-pairs law's relabelled copies (``verify._relabel``)."""
        from finform import verify

        built = Counter()
        init, relabel = Group.__init__, verify._relabel

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built[self.table.tobytes()] += 1

        def uncounted_relabel(*args):
            copy = relabel(*args)
            built[copy.table.tobytes()] -= 1
            return copy

        monkeypatch.setattr(Group, "__init__", counting_init)
        monkeypatch.setattr(verify, "_relabel", uncounted_relabel)
        return built

    def test_equal_parents_share_derived_groups(self):
        G = symmetric(4)
        H = from_cayley_table(G.table)
        assert H is not G
        assert self.v4(H).as_group() is self.v4(G).as_group()
        assert quotient(self.v4(H))[0] is quotient(self.v4(G))[0]

    def test_key_collision_builds_separate_groups(self, registry, monkeypatch):
        from finform import groups

        monkeypatch.setattr(groups, "_table_key", lambda table: (0, b""))
        sources = [cyclic(4), direct_product(cyclic(2), cyclic(2)), cyclic(4)]
        built = [X.full_subgroup().as_group() for X in sources]
        assert built[0] is not built[1]
        for X, B in zip(sources, built):
            assert np.array_equal(B.table, X.table)
        assert len(registry) == 1

    def test_registry_does_not_keep_groups_alive(self, registry):
        from finform.formations import section_product

        G = symmetric(4)
        H = from_cayley_table(G.table)
        for X in (G, H):
            self.v4(X).as_group()
            quotient(self.v4(X))
            section_product(self.v4(X), X.trivial_subgroup())
        assert len(registry) >= 3
        del G, H, X
        gc.collect()
        assert len(registry) == 0

    def test_public_constructors_return_fresh_objects(self, registry):
        from finform.groups import _table_key
        from finform.verify import _relabel

        V = direct_product(cyclic(2), cyclic(2))
        shared = V.full_subgroup().as_group()
        assert registry[_table_key(shared.table)] is shared
        fresh = [
            Group(V.table),
            from_cayley_table(V.table),
            direct_product(cyclic(2), cyclic(2)),
            elem_abelian(2, 2),
            _relabel(shared, np.arange(4)),
        ]
        for X in fresh:
            assert np.array_equal(X.table, shared.table)
            assert X is not shared
        assert len({id(X) for X in fresh}) == len(fresh)

    def test_lemma_suite_builds_each_table_once(self, registry, monkeypatch):
        # a structural guard in place of a timing bound: outside the
        # equivalent-pairs law's relabelled copies, no table is built twice,
        # and no catalog group's table is built again as its own G/1 or whole
        # subgroup as a group
        from finform import NILPOTENT, SUPERSOLUBLE
        from finform.verify import verify_lemma_suite

        catalog = catalog_generate(12)
        built = self.count_tables(monkeypatch)
        for F in (NILPOTENT, SUPERSOLUBLE):
            assert verify_lemma_suite(catalog, F).passed
        assert len(built) >= 27
        assert max(built.values()) == 1, sorted(built.values())[-5:]
        assert not any(built[G.table.tobytes()] for G in catalog)

    def test_every_claim_builds_no_catalog_table(self, registry, monkeypatch):
        from finform import run_all
        from finform.formations import SigmaPartition, builtin_formations

        catalog = catalog_generate(12)
        built = self.count_tables(monkeypatch)
        sigma = SigmaPartition.parse("[[2,3]]")
        assert all(r.passed for r in run_all(catalog, builtin_formations(sigma), sigma))
        assert max(built.values()) == 1, sorted(built.values())[-5:]
        assert not any(built[G.table.tobytes()] for G in catalog)

    def test_catalog_group_is_its_own_quotient_and_whole_subgroup(self, registry):
        for G in catalog_generate(24):
            assert quotient(G.trivial_subgroup())[0] is G, G.label
            assert G.full_subgroup().as_group() is G, G.label


def test_only_groups_module_reads_member_storage():
    # Outside groups.py, tests included, nothing reads a subgroup's stored
    # member set: code compares and meets subgroups through Subgroup's
    # operators, intersect, localize and lift, and an interned subgroup is its
    # own dict and memo key.
    root = Path(__file__).resolve().parents[1]
    paths = [p for p in sorted((root / "src" / "finform").glob("*.py")) if p.name != "groups.py"]
    paths += sorted((root / "tests").glob("*.py"))
    offences = [
        f"{path.relative_to(root)}:{node.lineno} .{node.attr}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in ("members", "members_tuple", "local_members")
    ]
    assert not offences, "\n".join(offences)


def test_no_exported_routine_takes_both_a_group_and_a_subgroup():
    # a subgroup names its group (``S.parent``), so a routine on subgroups
    # reads the group from them and takes no second, possibly different, one
    import finform

    routines = []
    for name, obj in vars(finform).items():
        if inspect.isfunction(obj):
            routines.append((name, obj))
        elif inspect.isclass(obj) and obj.__module__.startswith("finform."):
            routines += [(f"{name}.{attr}", fn) for attr, fn in vars(obj).items()
                         if inspect.isfunction(fn) and not attr.startswith("_")]
    offenders = [
        name for name, fn in routines
        if {Group, Subgroup} <= {p.annotation for p in
                                 inspect.signature(fn, eval_str=True).parameters.values()}
    ]
    assert len(routines) > 50 and not offenders, offenders


# Exported names that nothing in the package uses, each kept for a reason.
UNUSED_EXPORTS = {
    "automorphism_group": "public API; the census catalog of ROADMAP item 10b builds with it",
    "semidirect_product": "public API; the census catalog of ROADMAP item 10b builds with it",
    "chain_subnormals": "public API; the sharpness sweep of ROADMAP item 5 reads its sets",
    "dump_group_table": "the group-file writer, the inverse of load_group_file",
}


def test_every_export_is_used_in_the_package_or_allowed():
    # each job is done one way only: an exported name that no module of the
    # package reads, outside its own definition, is a second route to a job
    # (or dead code), unless UNUSED_EXPORTS says why it stays
    import finform

    root = Path(__file__).resolve().parents[1] / "src" / "finform"
    used = set()

    def walk(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.update({node.id} - defining)
        elif isinstance(node, ast.Attribute):
            used.update({node.attr} - defining)
        for child in ast.iter_child_nodes(node):
            walk(child, defining)

    for path in root.glob("*.py"):
        if path.name != "__init__.py":
            walk(ast.parse(path.read_text()), frozenset())
    exported = {name for name, obj in vars(finform).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert len(exported) > 50
    assert exported - used == set(UNUSED_EXPORTS), exported - used


def test_reports_are_built_only_by_the_sweep_driver():
    # a report names its formation and sigma one way: verify._sweep reads
    # both off F, so no other code of the package may build a report
    root = Path(__file__).resolve().parents[1] / "src" / "finform"
    builders = []

    def walk(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "VerificationReport":
                builders.append(where)
        for child in ast.iter_child_nodes(node):
            walk(child, where)

    for path in sorted(root.glob("*.py")):
        walk(ast.parse(path.read_text()), path.stem)
    assert builders == ["verify._sweep"]
