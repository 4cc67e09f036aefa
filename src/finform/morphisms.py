"""Isomorphism testing, automorphisms and the automorphism group.

Isomorphisms are found by backtracking over images of a small generating
set, pruned by element-order and conjugacy-class invariants; negatives are
certified by an invariant mismatch whenever one exists and by exhausted
search otherwise. Each group has one memoised word script, its generators
and one step per element; the backtrack fills each image once from it and,
at generator i, checks the map only on the subgroup of the first i+1.
Every map found, an isomorphism witness or an automorphism, is an int32
array of the images of the source's elements.
"""

from __future__ import annotations

import numpy as np

from .errors import SearchBudgetExceeded
from .groups import (
    Group,
    _memo,
    center,
    check_order_cap,
    derived_series,
)
from .construct import _permutation_table

DEFAULT_SEARCH_BUDGET = 10_000_000


def fingerprint(G: Group) -> tuple:
    """Cheap isomorphism invariants: a mismatch certifies non-isomorphism.

    The class profile, sorted (element order, class size) pairs, also fixes
    the multiset of element orders.
    """
    def compute():
        class_profile = tuple(
            sorted((int(G.element_orders[c[0]]), len(c)) for c in G.conjugacy_classes())
        )
        derived = tuple(s.order for s in derived_series(G))
        return (G.order, class_profile, center(G).order, derived)

    return _memo(G, "fingerprint", compute)


def _word_script(
    G: Group,
) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...], tuple[int, ...],
           tuple[np.ndarray, ...]]:
    """One word for every element of G over a greedy generating set.

    Returns ``(gens, steps, ends, members)``. Generators are taken by
    descending element order, then ascending index, each one outside the
    subgroup its predecessors generate. A step ``(y, x, j)`` says
    y = x·gens[j] with x reached before y; breadth-first right
    multiplication reaches every non-identity element by exactly one step.
    ``steps[ends[i]:ends[i+1]]`` reach the members of <gens[:i+1]> outside
    <gens[:i]>, and ``members[i]`` is the sorted, read-only member array of
    <gens[:i+1]>.
    """
    def compute():
        known = np.zeros(G.order, dtype=bool)
        known[0] = True
        gens: list[int] = []
        steps: list[tuple[int, int, int]] = []
        ends, members = [0], []
        for g in sorted(range(G.order), key=lambda g: (-int(G.element_orders[g]), g)):
            if len(steps) + 1 == G.order:
                break
            if known[g]:
                continue
            gens.append(g)
            frontier = np.flatnonzero(known).tolist()
            while frontier:
                new = []
                for x in frontier:
                    for j, h in enumerate(gens):
                        y = int(G.table[x, h])
                        if not known[y]:
                            known[y] = True
                            steps.append((y, x, j))
                            new.append(y)
                frontier = new
            ends.append(len(steps))
            members.append(np.flatnonzero(known).astype(np.int32))
            members[-1].flags.writeable = False
        return tuple(gens), tuple(steps), tuple(ends), tuple(members)

    return _memo(G, "word_script", compute)


def _element_invariant(G: Group) -> np.ndarray:
    """Per-element (order, class size) key used to filter image candidates."""
    def compute():
        class_sizes = np.empty(G.order, dtype=np.int32)
        for c in G.conjugacy_classes():
            class_sizes[c] = len(c)
        invariant = np.stack([G.element_orders, class_sizes], axis=1)
        invariant.flags.writeable = False
        return invariant

    return _memo(G, "element_invariant", compute)


def _search_embeddings(
    G: Group,
    H: Group,
    budget: int,
    find_all: bool,
) -> list[np.ndarray]:
    """Bijective multiplicative maps G -> H, for H of G's order, found by
    backtracking over the images of G's generators.

    Level i tries each image of gens[i] whose (order, class size) matches,
    then fills the images of <gens[:i+1]> outside <gens[:i]> by that
    level's steps of G's word script, each image once. It keeps the partial
    map only if it is injective and multiplicative on <gens[:i+1]>; a map
    kept at the last level is an isomorphism, since the generators
    generate G. Every candidate tried counts as one node of ``budget``.
    """
    gens, steps, ends, members = _word_script(G)
    inv_G = _element_invariant(G)
    inv_H = _element_invariant(H)
    candidates = [
        np.nonzero((inv_H == inv_G[g]).all(axis=1))[0].astype(np.int32) for g in gens
    ]
    found: list[np.ndarray] = []
    nodes = 0

    def dfs(level: int, current: np.ndarray) -> bool:
        nonlocal nodes
        if level == len(gens):
            found.append(current)
            return not find_all
        mem = members[level]
        sub = G.table[np.ix_(mem, mem)]
        for img in candidates[level]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded {budget} nodes"
                )
            trial = current.copy()
            trial[gens[level]] = img
            for y, x, j in steps[ends[level]:ends[level + 1]]:
                trial[y] = H.table[trial[x], trial[gens[j]]]
            images = trial[mem]
            if len(np.unique(images)) != len(mem):
                continue
            if not np.array_equal(trial[sub], H.table[images[:, None], images[None, :]]):
                continue
            if dfs(level + 1, trial):
                return True
        return False

    start = np.full(G.order, -1, dtype=np.int32)
    start[0] = 0
    dfs(0, start)
    return found


def is_isomorphic(
    G: Group, H: Group, budget: int = DEFAULT_SEARCH_BUDGET
) -> np.ndarray | None:
    """A witness isomorphism, the image in H of each element of G, if one
    exists, else None (a certified negative)."""
    if G.order != H.order or fingerprint(G) != fingerprint(H):
        return None
    maps = _search_embeddings(G, H, budget, find_all=False)
    return maps[0] if maps else None


def automorphisms(G: Group, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[np.ndarray, ...]:
    """All automorphisms as read-only permutation arrays, sorted lexicographically."""
    def compute():
        perms = _search_embeddings(G, G, budget, find_all=True)
        perms.sort(key=lambda p: p.tolist())
        for p in perms:
            p.flags.writeable = False
        return tuple(perms)

    return _memo(G, ("automorphisms", budget), compute)


def automorphism_count(G: Group, budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    return len(automorphisms(G, budget))


def automorphism_group(
    G: Group,
    budget: int = DEFAULT_SEARCH_BUDGET,
    order_cap: int | None = None,
) -> tuple[Group, np.ndarray]:
    """The group Aut of all automorphisms under composition, and its
    action: the (|Aut|, |G|) array whose row a is the image array of
    automorphism a (row 0 is the identity map).
    """
    perms = automorphisms(G, budget)
    check_order_cap(len(perms), order_cap)
    action = np.stack(perms)
    # p.q (q first) is compose(q, p), entry (j, i) of the permutation table
    return Group(_permutation_table(action).T, label=f"Aut({G.label})", validate=False), action
