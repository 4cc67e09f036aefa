"""Subgroup enumeration, normal structure, chief series, Frattini and Hall
subgroups.

The lattice is grown from the zuppos, the cyclic subgroups of prime-power
order: a cyclic group is the product of its Sylow subgroups, so every
subgroup is the join of the zuppos it contains (the seeds of the cyclic
extension method; Neubüser, Numer. Math. 2, 1960).

Each structure query returns a memoised tuple, sorted by (order, members)
unless it says otherwise: ``all_subgroups`` the subgroup lattice,
``overgroups`` the subgroups above one subgroup, ``normal_subgroups``,
``normal_covers`` and ``chief_series_through`` the terms of a chief series.
Subgroups are interned per parent, so inclusion is ``<=``.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable

import numpy as np

from .errors import LatticeBudgetExceeded, NotAGroup
from .groups import (
    Group,
    Subgroup,
    _integer,
    _memo,
    _require_normal,
    _subgroup,
    cyclic_subgroup,
    join,
    normal_closure,
)

DEFAULT_LATTICE_BUDGET = 200


def _sort_key(s: Subgroup) -> tuple:
    return (s.order, s.array.tolist())


def _antichain(family: Iterable[Subgroup], below=operator.le) -> list[Subgroup]:
    """The members of an ordered family above (``below(k, m)``) no member kept before
    them: the minimal ones listed upward, or with ``operator.ge`` the maximal downward."""
    kept: list[Subgroup] = []
    for m in family:
        if not any(below(k, m) for k in kept):
            kept.append(m)
    return kept


def _join_closure(bottom: Subgroup, seeds: Iterable[Subgroup]) -> tuple[Subgroup, ...]:
    """Every join of `bottom` with some of the seeds, sorted by (order, members).

    Each subgroup found is joined once with each distinct seed, so the cost
    is #found x #seeds joins.
    """
    distinct = dict.fromkeys(seeds)
    found = {bottom}
    grown = [bottom]
    for a in grown:
        for s in distinct:
            j = join(a, s)
            if j not in found:
                found.add(j)
                grown.append(j)
    return tuple(sorted(grown, key=_sort_key))


def all_subgroups(G: Group, budget: int = DEFAULT_LATTICE_BUDGET) -> tuple[Subgroup, ...]:
    """Every subgroup, sorted by (order, members), grown from the zuppos:
    the cyclic subgroups of prime-power order.

    A subgroup is the join of its cyclic subgroups, and a cyclic group <g>
    is the product of its Sylow subgroups, each a zuppo inside <g>; so every
    subgroup is the join of the zuppos it contains. The budget is checked on
    every call, memo or not.
    """
    if budget is not None and G.order > budget:
        raise LatticeBudgetExceeded(
            f"lattice enumeration limited to order {budget}, group has {G.order}"
        )
    orders = G.element_orders
    return _memo(G, "lattice", lambda: _join_closure(
        G.trivial_subgroup(), (cyclic_subgroup(G, g) for g in range(1, G.order)
                               if len(_prime_factors(int(orders[g]))) == 1)))


def overgroups(S: Subgroup) -> tuple[Subgroup, ...]:
    """The subgroups of S's group containing S, in lattice order: S first,
    the group last. Memoised on S; it reads the lattice of S's group with no
    budget, so a caller builds that lattice under its own budget first."""
    return _memo(S, "overgroups",
                 lambda: tuple(T for T in all_subgroups(S.parent, budget=None) if S <= T))


def _class_closures(G: Group) -> tuple[Subgroup, ...]:
    """The distinct normal closures ncl(x) of the nontrivial elements x, in
    the order of the first class with each closure.

    One closure per rational class: every generator y of <x> has <y> = <x>
    and so ncl(y) = ncl(x). Once ncl(x) is built, the classes of those
    generators are done. They make up x's rational class (the generators of
    the conjugates of <x>), all marked when its first class is reached, so
    each skipped class comes after one with the same closure and the list
    is the one that one closure per class gives, in the same order.
    """
    def compute():
        class_of, orders = G.class_of(), G.element_orders
        done = np.zeros(len(G.conjugacy_classes()), dtype=bool)
        closures = {}
        for cls in G.conjugacy_classes()[1:]:
            x = int(cls[0])
            if done[class_of[x]]:
                continue
            closures[normal_closure(G, [x])] = None
            y = x
            while y:  # the powers of x, of which those of x's order generate <x>
                if orders[y] == orders[x]:
                    done[class_of[y]] = True
                y = int(G.table[y, x])
        return tuple(closures)

    return _memo(G, "class_closures", compute)


def normal_subgroups(G: Group) -> tuple[Subgroup, ...]:
    """All normal subgroups: each is the join of the closures ncl(x) of its elements."""
    return _memo(G, "normals", lambda: _join_closure(G.trivial_subgroup(), _class_closures(G)))


def normal_covers(low: Subgroup) -> tuple[Subgroup, ...]:
    """Normal subgroups M > low of low's group (low normal) with no normal
    subgroup strictly between.

    A normal M > low contains low*ncl(x) for any x in M outside low, so the
    covers are the least of those joins; in (order, members) order, a join
    is least when no cover kept so far lies below it.
    """
    def compute():
        above = {join(low, C) for C in _class_closures(low.parent) if not C <= low}
        return tuple(_antichain(sorted(above, key=_sort_key)))

    return _memo(low.parent, ("normal_covers", low), compute)


def minimal_normal_subgroups(G: Group) -> tuple[Subgroup, ...]:
    """Normal subgroups minimal among the nontrivial ones."""
    if G.order == 1:
        raise ValueError("the trivial group has no minimal normal subgroups")
    return normal_covers(G.trivial_subgroup())


def chief_series_through(N: Subgroup) -> tuple[Subgroup, ...]:
    """A chief series of N's group G with N as a term: its terms 1 = T_0 < ... < T_k = G,
    each a normal cover of the one before, so each T_{i+1}/T_i is a chief
    factor of G, and ``zip(terms[1:], terms)`` are the (top, bottom) pairs.

    Climbs from 1 to N and then to G, each step taking the least normal
    cover that lies inside the current target, so the result is
    deterministic.
    """
    def compute():
        _require_normal(N)
        G = N.parent
        terms = [G.trivial_subgroup()]
        for target in (N, G.full_subgroup()):
            while terms[-1] != target:
                terms.append(next(M for M in normal_covers(terms[-1]) if M <= target))
        return tuple(terms)

    return _memo(N.parent, ("chief_series", N), compute)


def chief_series(G: Group) -> tuple[Subgroup, ...]:
    return chief_series_through(G.trivial_subgroup())


def frattini(G: Group, budget: int = DEFAULT_LATTICE_BUDGET) -> Subgroup:
    """Intersection of all maximal subgroups (the whole group if none).

    By descending order, a proper subgroup is maximal when it lies in none
    of the maximal ones found before it."""
    subgroups = all_subgroups(G, budget=budget)  # checks the budget, cache or not

    def compute():
        phi = G.full_subgroup()
        for m in _antichain(reversed(subgroups[:-1]), operator.ge):
            phi = phi.intersect(m)
        return phi

    return _memo(G, "frattini", compute)


def _prime_factors(n: int) -> frozenset[int]:
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return frozenset(out)


def _p_part(n: int, p: int) -> int:
    """The largest power of the prime p dividing n."""
    return p * _p_part(n // p, p) if n % p == 0 else 1


def is_prime(n: int) -> bool:
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return n > 1


def normal_hall_subgroup(G: Group, primes: Iterable[int]) -> Subgroup | None:
    """The normal subgroup of order the full `primes`-part of |G|, if any.

    A normal Hall subgroup for a prime set must equal the set of elements
    whose orders factor inside that set, so existence reduces to that set
    being closed under multiplication. Raises ValueError for an entry of
    ``primes`` that is not an integer prime; a float or a bool is not one.
    """
    prime_set = set()
    for entry in primes:
        try:
            p = _integer(entry)
        except ValueError as e:
            raise ValueError(f"{entry!r} is not prime: {e}") from None
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        prime_set.add(p)
    part = math.prod(_p_part(G.order, p) for p in prime_set)
    orders, order_index = np.unique(G.element_orders, return_inverse=True)
    inside = np.array([_prime_factors(int(o)) <= prime_set for o in orders])
    candidates = inside[order_index]
    if int(candidates.sum()) != part:
        return None
    try:
        return _subgroup(G, candidates, validate=True)
    except NotAGroup:  # the candidate set is not closed
        return None

