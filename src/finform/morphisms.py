"""Isomorphism testing, automorphism groups, and holomorphs.

Isomorphisms are found by backtracking over images of a small generating
set, pruned by element-order and conjugacy-class invariants; negatives are
certified by an invariant mismatch whenever one exists and by exhausted
search otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import SearchBudgetExceeded
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Homomorphism,
    _memo,
    center,
    check_order_cap,
    derived_series,
    generated_subgroup,
)
from .construct import _permutation_table, semidirect_product

DEFAULT_SEARCH_BUDGET = 10_000_000


def fingerprint(G: Group) -> tuple:
    """Cheap isomorphism invariants: a mismatch certifies non-isomorphism."""
    def compute():
        orders = tuple(sorted(G.element_orders.tolist()))
        classes = G.conjugacy_classes()
        class_profile = tuple(
            sorted((int(G.element_orders[c[0]]), len(c)) for c in classes)
        )
        derived = tuple(s.order for s in derived_series(G))
        return (G.order, orders, class_profile, center(G).order, derived)

    return _memo(G, "fingerprint", compute)


def generating_set(G: Group) -> list[int]:
    """A small generating set, chosen greedily and deterministically."""
    def compute():
        by_order = sorted(range(G.order), key=lambda g: (-int(G.element_orders[g]), g))
        gens: list[int] = []
        current = G.trivial_subgroup()
        for g in by_order:
            if current.order == G.order:
                break
            if g in current:
                continue
            gens.append(g)
            current = generated_subgroup(G, gens)
        return gens

    return _memo(G, "gens", compute)


def _bfs_script(G: Group, gens: list[int]) -> tuple[list[np.ndarray], list[list[tuple[int, int, int]]]]:
    """Per-prefix closure members and word scripts.

    For each prefix gens[:i+1], return the member array of the generated
    subgroup and a script of (element, parent, gen_index) steps that lets a
    partial map be extended by table lookups in discovery order.
    """
    members_per_level: list[np.ndarray] = []
    scripts: list[list[tuple[int, int, int]]] = []
    known = {0}
    script_all: list[tuple[int, int, int]] = []
    for i in range(len(gens)):
        frontier = sorted(known)
        active = gens[: i + 1]
        while frontier:
            new = []
            for x in frontier:
                for j, g in enumerate(active):
                    y = int(G.table[x, g])
                    if y not in known:
                        known.add(y)
                        script_all.append((y, x, j))
                        new.append(y)
            frontier = new
        members_per_level.append(np.asarray(sorted(known), dtype=np.int32))
        scripts.append(list(script_all))
    return members_per_level, scripts


def _element_invariant(G: Group) -> np.ndarray:
    """Per-element (order, class size) key used to filter image candidates."""
    class_sizes = np.empty(G.order, dtype=np.int32)
    for c in G.conjugacy_classes():
        class_sizes[c] = len(c)
    return np.stack([G.element_orders, class_sizes], axis=1)


def _search_embeddings(
    G: Group,
    H: Group,
    budget: int,
    find_all: bool,
) -> list[np.ndarray]:
    """Bijective multiplicative maps G -> H via generator-image backtracking."""
    gens = generating_set(G)
    if not gens:  # trivial group
        return [np.zeros(1, dtype=np.int32)] if H.order == 1 else []
    members, scripts = _bfs_script(G, gens)
    inv_G = _element_invariant(G)
    inv_H = _element_invariant(H)
    candidates = [
        np.nonzero((inv_H == inv_G[g]).all(axis=1))[0].astype(np.int32) for g in gens
    ]
    found: list[np.ndarray] = []
    nodes = 0

    def dfs(level: int, current: np.ndarray) -> bool:
        nonlocal nodes
        for img in candidates[level]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(
                    f"isomorphism search exceeded {budget} nodes"
                )
            trial = current.copy()
            if trial[gens[level]] >= 0 and trial[gens[level]] != img:
                continue
            trial[gens[level]] = img
            consistent = True
            for y, x, j in scripts[level]:
                val = H.table[trial[x], trial[gens[j]]]
                if trial[y] >= 0 and trial[y] != val:
                    consistent = False
                    break
                trial[y] = val
            if not consistent:
                continue
            mem = members[level]
            images = trial[mem]
            if len(np.unique(images)) != len(mem):
                continue
            sub = G.table[np.ix_(mem, mem)]
            if not np.array_equal(trial[sub], H.table[images[:, None], images[None, :]]):
                continue
            if level + 1 == len(gens):
                if len(mem) == G.order:
                    found.append(trial.copy())
                    if not find_all:
                        return True
            elif dfs(level + 1, trial):
                return True
        return False

    start = np.full(G.order, -1, dtype=np.int32)
    start[0] = 0
    dfs(0, start)
    return found


def is_isomorphic(
    G: Group, H: Group, budget: int = DEFAULT_SEARCH_BUDGET
) -> Homomorphism | None:
    """A witness isomorphism if one exists, else None (a certified negative)."""
    if G.order != H.order or fingerprint(G) != fingerprint(H):
        return None
    maps = _search_embeddings(G, H, budget, find_all=False)
    if not maps:
        return None
    return Homomorphism(G, H, maps[0], validate=False)


def automorphisms(G: Group, budget: int = DEFAULT_SEARCH_BUDGET) -> list[np.ndarray]:
    """All automorphisms as permutation arrays, sorted lexicographically."""
    def compute():
        perms = _search_embeddings(G, G, budget, find_all=True)
        perms.sort(key=lambda p: p.tolist())
        return perms

    return _memo(G, ("automorphisms", budget), compute)


def automorphism_count(G: Group, budget: int = DEFAULT_SEARCH_BUDGET) -> int:
    return len(automorphisms(G, budget))


def automorphism_group(
    G: Group,
    budget: int = DEFAULT_SEARCH_BUDGET,
    order_cap: int | None = None,
) -> Group:
    """The group of all automorphisms under composition.

    The result carries ``action``: an (|Aut|, |G|) array of the underlying
    permutations of G's elements (row 0 is the identity map).
    """
    perms = automorphisms(G, budget)
    check_order_cap(len(perms), order_cap)
    action = np.stack(perms)
    # p.q (q first) is compose(q, p), entry (j, i) of the permutation table
    aut = Group(_permutation_table(action).T, label=f"Aut({G.label})", validate=False)
    aut.action = action
    return aut


def holomorph(
    G: Group,
    budget: int = DEFAULT_SEARCH_BUDGET,
    order_cap: int | None = DEFAULT_ORDER_CAP,
) -> Group:
    """Hol(G) = G x| Aut(G) with the natural action."""
    aut = automorphism_group(G, budget=budget)
    return semidirect_product(
        G, aut, aut.action, label=f"Hol({G.label})", order_cap=order_cap
    )
