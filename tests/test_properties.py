"""Randomised invariants over small permutation groups."""

import numpy as np
from hypothesis import given, settings, strategies as st

from finform import (
    Group,
    NILPOTENT,
    OrderCapExceeded,
    SUPERSOLUBLE,
    from_permutation_gens,
    generated_subgroup,
    is_isomorphic,
    is_k_f_subnormal,
    is_subnormal,
    normal_closure,
    quotient,
)
from finform.verify import _relabel

import oracles
import references

MAX_EXAMPLES = 20


@st.composite
def small_perm_group(draw):
    degree = draw(st.integers(min_value=2, max_value=5))
    perms = draw(
        st.lists(st.permutations(range(degree)), min_size=1, max_size=2)
    )
    try:
        return from_permutation_gens(degree, [tuple(p) for p in perms], order_cap=120)
    except OrderCapExceeded:
        return from_permutation_gens(degree, [tuple(perms[0])], order_cap=120)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_perm_group(), st.data())
def test_group_axioms_on_random_closures(g, data):
    n = g.order
    triples = data.draw(
        st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), min_size=1, max_size=20)
    )
    for a, b, c in triples:
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))
        assert g.mul(a, g.inv(a)) == 0
        assert g.mul(0, a) == a == g.mul(a, 0)


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_perm_group(), st.data())
def test_quotient_projection_kernel(g, data):
    x = data.draw(st.integers(0, g.order - 1))
    n = normal_closure(g, [x])
    q, proj = quotient(n)
    assert np.array_equal(np.flatnonzero(proj == 0), n.array)
    assert set(proj.tolist()) == set(range(q.order))
    assert oracles.is_homomorphism(g, q, proj)
    assert q.order == g.order // n.order


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_perm_group(), st.randoms(use_true_random=False))
def test_relabelled_groups_are_isomorphic(g, rnd):
    perm = list(range(1, g.order))
    rnd.shuffle(perm)
    perm = np.asarray([0] + perm)
    assert is_isomorphic(g, _relabel(g, perm)) is not None


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_perm_group(), st.data())
def test_witness_chains_revalidate(g, data):
    if g.order > 60:
        return
    x = data.draw(st.integers(0, g.order - 1))
    y = data.draw(st.integers(0, g.order - 1))
    a = generated_subgroup(g, [x, y])
    plain = is_subnormal(a)
    if plain is not None:
        assert references.chain_holds(plain, references.definition_step(lambda Q: False))
        # plain subnormality must imply a Kegel chain for any formation
        for f in (NILPOTENT, SUPERSOLUBLE):
            chain = is_k_f_subnormal(a, f)
            assert chain is not None
            assert references.chain_holds(chain, references.definition_step(f.contains))


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(small_perm_group())
def test_subgroup_as_group_consistency(g):
    sub = generated_subgroup(g, [min(1, g.order - 1)])
    inner = sub.as_group()
    Group(inner.table, validate=True)
    assert inner.order == sub.order
    members = sub.array.tolist()
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            assert members[inner.table[i, j]] == g.mul(a, b)
