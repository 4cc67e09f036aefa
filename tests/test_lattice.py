import pytest

from finform import (
    LatticeBudgetExceeded,
    NILPOTENT,
    SUPERSOLUBLE,
    all_subgroups,
    alternating,
    catalog_generate,
    chief_series,
    chief_series_through,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    frattini,
    generated_subgroup,
    hypercentre,
    minimal_normal_subgroups,
    normal_hall_subgroup,
    normal_subgroups,
    overgroups,
    symmetric,
)
from finform import formations, lattice
from finform.groups import centralizer_of_section, cyclic_subgroup, join
from finform.lattice import normal_covers

import oracles
import references


class TestAllSubgroups:
    def test_trivial(self):
        assert len(all_subgroups(cyclic(1))) == 1

    def test_s3(self):
        lat = all_subgroups(symmetric(3))
        assert len(lat) == 6
        assert sorted(s.order for s in lat) == [1, 2, 2, 2, 3, 6]

    def test_s4_count(self):
        assert len(all_subgroups(symmetric(4))) == 30

    def test_closed_under_meet_and_join(self, catalog12):
        for g in catalog12.groups:
            subgroups = all_subgroups(g)
            for a in subgroups:
                for b in subgroups:
                    assert a.intersect(b) in subgroups
                    assert join(a, b) in subgroups

    def test_budget(self):
        with pytest.raises(LatticeBudgetExceeded):
            all_subgroups(cyclic(12), budget=10)

    def test_scans_match_their_definitions(self, catalog24):
        # on member frozensets, without Subgroup's operators
        for g in catalog24.groups:
            lat = all_subgroups(g)
            sets = {s: frozenset(s.array.tolist()) for s in lat}
            whole = sets[g.full_subgroup()]
            maximal = [m for m in lat
                       if sets[m] < whole and not any(sets[m] < sets[x] < whole for x in lat)]
            assert sets[frattini(g)] == whole.intersection(*(sets[m] for m in maximal))
            for s in lat:
                assert overgroups(s) == tuple(e for e in lat if sets[s] <= sets[e])


def test_zuppo_seeds_match_the_cyclic_seed_reference(catalog48):
    # a cyclic subgroup is the join of its Sylow subgroups, so dropping the
    # cyclic seeds of composite order loses no subgroup
    for g in catalog48.groups + [symmetric(5)]:
        assert all_subgroups(g) == references.all_subgroups_by_cyclic_seeds(g), g.label


class TestNormalSubgroups:
    def test_abelian_all_normal(self):
        g = elem_abelian(2, 3)
        assert len(normal_subgroups(g)) == len(all_subgroups(g))

    def test_s4(self):
        assert [n.order for n in normal_subgroups(symmetric(4))] == [1, 4, 12, 24]

    def test_a4(self):
        assert [n.order for n in normal_subgroups(alternating(4))] == [1, 4, 12]

    def test_matches_lattice_filter(self, catalog12):
        for g in catalog12.groups:
            by_seed = set(normal_subgroups(g))
            by_lattice = {s for s in all_subgroups(g) if s.is_normal()}
            assert by_seed == by_lattice

    def test_minimal_normals(self):
        assert [n.order for n in minimal_normal_subgroups(symmetric(4))] == [4]
        assert sorted(n.order for n in minimal_normal_subgroups(cyclic(6))) == [2, 3]
        a5_like = alternating(4)  # not simple; has V4
        assert [n.order for n in minimal_normal_subgroups(a5_like)] == [4]
        with pytest.raises(ValueError):
            minimal_normal_subgroups(cyclic(1))


def test_both_lattices_match_oracles():
    for g in catalog_generate(16).groups:
        table = g.table.tolist()
        elems, mul = tuple(range(g.order)), lambda a, b: table[a][b]
        for engine, oracle in ((all_subgroups(g), oracles.all_subgroups),
                               (normal_subgroups(g), oracles.normal_subgroups)):
            got = [frozenset(s.array.tolist()) for s in engine]
            want = oracle(elems, mul)
            assert len(set(got)) == len(got) and set(got) == set(want), g.label


class TestClassClosures:
    def test_match_one_closure_per_class(self, catalog48):
        a5 = alternating(5)
        for g in catalog48.groups + [a5, symmetric(5), direct_product(a5, cyclic(3))]:
            got = lattice._class_closures(g)
            want = references.class_closures(g)
            assert len(got) == len(want) and all(a is b for a, b in zip(got, want)), g.label

    @pytest.mark.parametrize("group, calls", [
        (lambda: cyclic(60), 11),  # one per nontrivial cyclic subgroup
        (lambda: cyclic(256), 8),
        (lambda: alternating(5), 3),  # the two classes of 5-cycles share one
    ], ids=["C60", "C256", "A5"])
    def test_one_closure_per_rational_class(self, group, calls, monkeypatch):
        counted = []
        real = lattice.normal_closure

        def counting(G, elems):
            counted.append(elems)
            return real(G, elems)

        monkeypatch.setattr(lattice, "normal_closure", counting)
        lattice._class_closures(group())
        assert len(counted) == calls


class TestNormalCovers:
    def test_s4_climbs_one_cover_at_a_time(self):
        s4 = symmetric(4)
        low = s4.trivial_subgroup()
        for order in (4, 12, 24):
            covers = normal_covers(low)
            assert [c.order for c in covers] == [order]
            low = covers[0]
        assert normal_covers(low) == ()

    def test_c6(self):
        c6 = cyclic(6)
        assert [c.order for c in normal_covers(c6.trivial_subgroup())] == [2, 3]

    def test_covers_are_exactly_the_minimal_normals_above(self, catalog12):
        for g in catalog12.groups:
            normals = normal_subgroups(g)
            for low in normals:
                covers = normal_covers(low)
                for c in covers:
                    assert low < c and not any(low < n < c for n in normals)
                for n in normals:
                    if low < n:
                        assert any(c <= n for c in covers), (g.label, low, n)


def _count_calls(monkeypatch, modules, name):
    """Wrap ``name`` wherever ``modules`` bind it; the list collects one entry per call."""
    calls = []
    original = getattr(modules[0], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


class TestGrowthIsLinearInSeeds:
    def test_joins_per_seed(self, monkeypatch):
        joins = _count_calls(monkeypatch, [lattice], "join")
        assert len(normal_subgroups(elem_abelian(2, 4))) == 67
        assert len(joins) <= 67 * 15
        g = direct_product(symmetric(4), cyclic(2))
        cyclics = {cyclic_subgroup(g, x) for x in range(1, g.order)}
        joins.clear()
        lat = all_subgroups(g)
        assert 0 < len(joins) <= len(lat) * len(cyclics)

    def test_covers_skip_the_normal_lattice(self, monkeypatch):
        calls = _count_calls(monkeypatch, [lattice, formations], "normal_subgroups")
        for g in (elem_abelian(2, 4), direct_product(symmetric(4), cyclic(2))):
            for F in (NILPOTENT, SUPERSOLUBLE):
                hypercentre(g, F)
            chief_series(g)
            minimal_normal_subgroups(g)
        assert calls == []


class TestChiefSeries:
    def test_s4_series(self):
        s4 = symmetric(4)
        assert [t.order for t in chief_series(s4)] == [1, 4, 12, 24]
        assert references.chief_factor_orders(s4) == (4, 3, 2)

    def test_terms_climb_by_normal_covers(self, catalog12):
        for g in catalog12.groups:
            terms = chief_series(g)
            assert type(terms) is tuple and terms[0].order == 1 and terms[-1].order == g.order
            for top, bottom in zip(terms[1:], terms):
                assert top in normal_covers(bottom), g.label

    def test_through_term(self):
        s4 = symmetric(4)
        a4 = generated_subgroup(s4, [e for e in range(24) if s4.element_orders[e] == 3])
        series = chief_series_through(a4)
        assert any(t == a4 for t in series)

    def test_through_whole_group(self):
        s4 = symmetric(4)
        series = chief_series_through(s4.full_subgroup())
        assert [t.order for t in series] == [1, 4, 12, 24]

    def test_a4_through_v4(self):
        a4 = alternating(4)
        v4 = minimal_normal_subgroups(a4)[0]
        series = chief_series_through(v4)
        assert [t.order for t in series] == [1, 4, 12]

    def test_every_factor_chief(self, catalog12):
        for g in catalog12.groups:
            terms = chief_series(g)
            normals = normal_subgroups(g)
            for top, bottom in zip(terms[1:], terms):
                assert top.is_normal() and bottom.is_normal()
                assert not any(bottom < n < top for n in normals)

    def test_jordan_holder_matching(self, catalog24):
        # Two chief series have pairwise G-isomorphic factors, and
        # G-isomorphic factors share their order and their centralizer in G;
        # so the multisets of those two invariants must agree.
        def invariants(g, terms):
            return sorted(
                (top.order // bottom.order,
                 centralizer_of_section(top, bottom).array.tolist())
                for top, bottom in zip(terms[1:], terms)
            )

        for g in catalog24.groups:
            if g.order > 16:
                continue
            base = invariants(g, chief_series(g))
            for n in normal_subgroups(g):
                assert invariants(g, chief_series_through(n)) == base, (g.label, n)


class TestFrattini:
    def test_trivial(self):
        assert frattini(cyclic(1)).order == 1

    def test_s4(self):
        assert frattini(symmetric(4)).order == 1

    def test_budget_holds_on_a_warm_cache(self):
        s4 = symmetric(4)
        assert frattini(s4).order == 1
        with pytest.raises(LatticeBudgetExceeded):
            frattini(s4, budget=10)

    def test_d8_center(self):
        d8 = dihedral(4)
        from finform import center

        phi = frattini(d8)
        assert phi.order == 2
        assert phi == center(d8)

    def test_nongenerator_property(self, catalog12):
        from finform import generated_subgroup

        for g in catalog12.groups:
            phi = frattini(g)
            assert phi.is_normal()
            for s in all_subgroups(g):
                if join(s, phi).order == g.order:
                    assert s.order == g.order


class TestNormalHall:
    def test_whole_group(self):
        s3 = symmetric(3)
        assert normal_hall_subgroup(s3, {2, 3}).order == 6

    def test_s3_examples(self):
        s3 = symmetric(3)
        assert normal_hall_subgroup(s3, {3}).order == 3
        assert normal_hall_subgroup(s3, {2}) is None

    @pytest.mark.parametrize("primes", [[1], [0], [-2], [4], [2, 9], [2.5]])
    def test_non_prime_entry_is_rejected(self, primes):
        with pytest.raises(ValueError, match="is not prime"):
            normal_hall_subgroup(symmetric(3), primes)

    def test_matches_normal_scan(self, catalog24):
        # dual route: the element-order construction must agree with a scan
        # of the normal subgroup list for the full primes-part order
        for g in catalog24.groups:
            for primes in ({2}, {3}, {2, 3}, {5}):
                part = 1
                n = g.order
                for p in primes:
                    while n % p == 0:
                        part *= p
                        n //= p
                by_scan = [s for s in normal_subgroups(g) if s.order == part]
                hall = normal_hall_subgroup(g, primes)
                if hall is not None:
                    assert hall.order == part
                    assert any(s == hall for s in by_scan)
                else:
                    # a normal subgroup of the full part order would itself
                    # be a normal Hall subgroup, so none may exist
                    assert not by_scan


def test_section_centralizer_consistency(catalog12):
    # the centralizer of a chief factor contains the factor's top when the
    # factor is abelian
    for g in catalog12.groups:
        terms = chief_series(g)
        for top, bottom in zip(terms[1:], terms):
            c = centralizer_of_section(top, bottom)
            t = top.as_group()
            if t.is_abelian():
                assert top <= c


@pytest.mark.parametrize("group", [symmetric(4), symmetric(3)], ids=["S4", "S3"])
def test_memoised_results_cannot_be_mutated(group):
    # a caller that changed a memoised result would change every later call
    from finform import automorphisms
    from finform.groups import derived_series

    G, one = group, group.trivial_subgroup()
    minimal = minimal_normal_subgroups(G)
    covers = normal_covers(one)
    with pytest.raises(AttributeError):
        covers.clear()
    assert minimal_normal_subgroups(G) == minimal and len(minimal) == 1
    sequences = {
        "all_subgroups": all_subgroups(G),
        "overgroups": overgroups(one),
        "normal_subgroups": normal_subgroups(G),
        "normal_covers": covers,
        "minimal_normal_subgroups": minimal,
        "chief_series": chief_series(G),
        "derived_series": derived_series(G),
        "conjugacy_classes": G.conjugacy_classes(),
        "automorphisms": automorphisms(G),
    }
    for name, seq in sequences.items():
        assert type(seq) is tuple and seq, name
    arrays = [G.class_of(), *G.conjugacy_classes(), *automorphisms(G)]
    for a in arrays:
        assert not a.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        G.conjugacy_classes()[1][0] = 0
    with pytest.raises(ValueError, match="read-only"):
        G.class_of()[1] = 0
