import numpy as np
import pytest

from finform import (
    SearchBudgetExceeded,
    alternating,
    automorphism_group,
    automorphisms,
    cyclic,
    dihedral,
    direct_product,
    elem_abelian,
    is_isomorphic,
    quaternion,
    semidirect_product,
    symmetric,
)
from finform import morphisms
from finform.morphisms import _word_script, fingerprint

import oracles
import references


def c4_by_c4_and_c2_by_q8():
    """C4 x| C4, the odd elements acting by inversion, and C2 x Q8: equal
    fingerprints, and not isomorphic."""
    c4 = cyclic(4)
    action = np.stack([c4.inverse if h % 2 else np.arange(4) for h in range(4)])
    return semidirect_product(c4, c4, action), direct_product(cyclic(2), quaternion(8))


class TestIsomorphism:
    def test_identity_witness(self):
        s3 = symmetric(3)
        w = is_isomorphic(s3, s3)
        assert w is not None and oracles.is_isomorphism(s3, s3, w)

    def test_c4_vs_klein_negative_by_order_profile(self):
        assert is_isomorphic(cyclic(4), elem_abelian(2, 2)) is None

    def test_product_recognition(self):
        assert is_isomorphic(direct_product(cyclic(2), cyclic(3)), cyclic(6)) is not None
        assert is_isomorphic(dihedral(3), symmetric(3)) is not None

    def test_same_order_profile_different_groups(self):
        # D24 and C3 x D8 share the order profile; search must separate them
        d24 = dihedral(12)
        c3d8 = direct_product(cyclic(3), dihedral(4))
        assert sorted(d24.element_orders.tolist()) != sorted(
            c3d8.element_orders.tolist()
        ) or is_isomorphic(d24, c3d8) is None

    def test_witness_is_multiplicative(self):
        a4 = alternating(4)
        p = direct_product(elem_abelian(2, 2), cyclic(3))
        assert is_isomorphic(a4, p) is None
        assert oracles.is_isomorphism(a4, a4, is_isomorphic(a4, a4))

    def test_equivalence_relation_on_samples(self, catalog12):
        groups = catalog12.groups
        for g in groups:
            assert is_isomorphic(g, g) is not None
        pairs = [(a, b) for a in groups[:8] for b in groups[:8]]
        for a, b in pairs:
            ab = is_isomorphic(a, b) is not None
            ba = is_isomorphic(b, a) is not None
            assert ab == ba
        for a in groups[:6]:
            for b in groups[:6]:
                for c in groups[:6]:
                    if (
                        is_isomorphic(a, b) is not None
                        and is_isomorphic(b, c) is not None
                    ):
                        assert is_isomorphic(a, c) is not None

    def test_negative_after_exhausted_search(self):
        a, b = c4_by_c4_and_c2_by_q8()
        assert fingerprint(a) == fingerprint(b)
        for x, y in ((a, b), (b, a)):
            assert is_isomorphic(x, y) is None
            # the negative comes from the search, not from the fingerprint
            with pytest.raises(SearchBudgetExceeded):
                is_isomorphic(x, y, budget=1)

    def test_budget_raises(self):
        big = elem_abelian(2, 4)
        with pytest.raises(SearchBudgetExceeded):
            is_isomorphic(big, big, budget=3)


class TestAutomorphisms:
    def test_trivial(self):
        assert len(automorphisms(cyclic(1))) == 1

    def test_known_orders(self):
        assert len(automorphisms(cyclic(3))) == 2
        assert len(automorphisms(elem_abelian(2, 2))) == 6
        assert len(automorphisms(alternating(4))) == 24
        assert len(automorphisms(symmetric(4))) == 24
        assert len(automorphisms(quaternion(8))) == 24
        assert len(automorphisms(elem_abelian(2, 3))) == 168

    def test_group_structure(self):
        aut, _ = automorphism_group(elem_abelian(2, 2))
        assert aut.order == 6
        assert is_isomorphic(aut, symmetric(3)) is not None

    def test_fingerprint_stability(self):
        assert fingerprint(symmetric(3)) == fingerprint(dihedral(3))
        assert fingerprint(cyclic(4)) != fingerprint(elem_abelian(2, 2))

    def test_generating_set_generates(self):
        from finform import generated_subgroup

        for g in (symmetric(4), quaternion(16), elem_abelian(3, 2)):
            gens = _word_script(g)[0]
            assert generated_subgroup(g, gens).order == g.order


class TestAgainstReferenceSearch:
    """The word-script search returns the generators, maps and map order of
    the search that found its generators by closure and replayed every
    earlier step at each node."""

    def test_same_generators_automorphisms_and_isomorphisms(self, catalog24):
        groups = catalog24.groups
        for G in groups:
            gens = _word_script(G)[0]
            assert gens == tuple(references.generating_set(G)), G.label
            if len(gens) <= 3:
                got = morphisms._search_embeddings(G, G, 10**6, find_all=True)
                want = references.search_embeddings(G, G, 10**6, find_all=True)
                assert [p.tolist() for p in got] == [p.tolist() for p in want], G.label
        pairs = [(G, H) for G in groups for H in groups if G.order == H.order]
        for G, H in [*pairs, c4_by_c4_and_c2_by_q8()]:
            w = is_isomorphic(G, H)
            want = (references.search_embeddings(G, H, 10**6, find_all=False)
                    if fingerprint(G) == fingerprint(H) else [])
            assert (None if w is None else w.tolist()) == (
                want[0].tolist() if want else None), (G.label, H.label)

