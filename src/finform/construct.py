"""Group constructions: standard families, products, and section products.

Two table formulas build the products and permutation groups. The pair
table serves ``direct_product`` (identity action), ``semidirect_product``
(once it has checked its caller's action) and ``semidirect_section``: the
section product [H/K](G/C_G(H/K)) read off the parent's table, which is
H/K's own table when G centralizes the section, as the formula with a
one-element acting group gives. The permutation table serves
``from_permutation_gens`` and the automorphism group.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import NotAGroup, OrderCapExceeded
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Subgroup,
    _associativity_failure,
    _cosets,
    _derived_group,
    _integer,
    _table_array,
    centralizer_of_section,
    check_order_cap,
)
from .lattice import is_prime

# The section product [H/K](G/C_G(H/K)) that decides F-centrality (so the
# lemma laws) can exceed the group cap; it gets its own guard.
SECTION_PRODUCT_CAP = 4096

def from_cayley_table(table, label: str = "G", order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Build and fully validate a group from an untrusted square table.

    If the two-sided identity sits at some index e != 0, elements are
    relabelled by the transposition (0 e) so that 0 becomes the identity.
    The relabelled table must then be a Latin square, and associativity is
    decided by Light's test over a generating set (Clifford & Preston,
    *The Algebraic Theory of Semigroups* I, 1961, §1.2) in O(n^2 * |gens|);
    a non-associative table raises NotAGroup whose witness is the first
    failing (a, b, c) of the caller's table in row-major order, so it
    replays on the table as given.
    """
    arr = _table_array(table).astype(np.int64)
    n = len(arr)
    check_order_cap(n, order_cap)
    idx = np.arange(n)
    ident = np.nonzero(
        (arr == idx[None, :]).all(axis=1) & (arr.T == idx[None, :]).all(axis=1)
    )[0]
    if ident.size != 1:
        raise NotAGroup(f"table has {ident.size} two-sided identities, expected 1")
    e = int(ident[0])
    if e == 0:
        return Group(arr, label=label, validate=True)
    perm = idx.copy()
    perm[[0, e]] = perm[[e, 0]]
    try:
        return Group(perm[arr[np.ix_(perm, perm)]], label=label, validate=True)
    except NotAGroup as err:
        if err.witness is None:  # not a Latin square
            raise
        # the relabelled table fails associativity exactly when the caller's does
        raise _associativity_failure(arr) from None


# -- permutation closures -------------------------------------------------


def compose(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Permutation product: apply p first, then q."""
    return tuple(q[p[i]] for i in range(len(p)))


def _longest_orbit(degree: int, gens: list[tuple[int, ...]]) -> int:
    """The length of the longest orbit of <gens> on {0..degree-1}."""
    seen = [False] * degree
    longest = 0
    for start in range(degree):
        if not seen[start]:
            seen[start] = True
            orbit = [start]
            for x in orbit:  # the list grows while it is read
                for g in gens:
                    if not seen[g[x]]:
                        seen[g[x]] = True
                        orbit.append(g[x])
            longest = max(longest, len(orbit))
    return longest


def _permutation_table(perms: np.ndarray) -> np.ndarray:
    """The table of distinct permutations ``perms`` (one per row, closed
    under composition): entry (i, j) is the row of compose(perms[i],
    perms[j]), found by one ``searchsorted`` per row among the rows sorted
    as byte strings. Degree 0 has no byte key; its one element gives [[0]]."""
    n, degree = perms.shape
    if degree == 0:
        return np.zeros((1, 1), dtype=np.int32)
    key = np.dtype((np.void, perms.itemsize * degree))
    keys = np.ascontiguousarray(perms).view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        products = np.ascontiguousarray(perms[:, perms[i]])  # row j: compose(perms[i], perms[j])
        table[i] = order[np.searchsorted(sorted_keys, products.view(key).ravel())]
    return table


def from_permutation_gens(
    degree: int,
    gens: Iterable[Sequence[int]],
    label: str = "G",
    order_cap: int | None = DEFAULT_ORDER_CAP,
) -> Group:
    """Close generator permutations of {0..degree-1} into a group.

    Elements are indexed in breadth-first discovery order starting from the
    identity, which makes the construction deterministic, and the table is
    their permutation table.
    """
    identity = tuple(range(degree))
    gen_list = []
    for g in gens:
        p = tuple(int(x) for x in g)
        if sorted(p) != list(range(degree)):
            raise NotAGroup(f"generator {p} is not a permutation of 0..{degree - 1}")
        gen_list.append(p)
    longest = _longest_orbit(degree, gen_list)  # |G| is at least every orbit's length
    if order_cap is not None and longest > order_cap:
        raise OrderCapExceeded(f"an orbit of length {longest} exceeds order cap {order_cap}")
    elements = {identity: None}  # an ordered set, in discovery order
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gen_list:
                q = compose(p, g)
                if q not in elements:
                    if order_cap is not None and len(elements) >= order_cap:
                        raise OrderCapExceeded(f"closure exceeds order cap {order_cap}")
                    elements[q] = None
                    nxt.append(q)
        frontier = nxt
    table = _permutation_table(np.array(list(elements), dtype=np.int32))
    return Group(table, label=label, validate=False)


# -- named families --------------------------------------------------------


def cyclic(n: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    n = _integer(n)
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    check_order_cap(n, order_cap)
    idx = np.arange(n, dtype=np.int32)
    return Group((idx[:, None] + idx[None, :]) % n, label=f"C{n}", validate=False)


def _two_part_table(n: int, flip_square: int) -> np.ndarray:
    """Table on pairs (i, j), i mod n, j in {0,1}, index 2*i + j, with b*a =
    a^-1*b and b^2 = a^flip_square: dihedral (flip_square=0) and generalized
    quaternion (flip_square=n//2). (i1, j1)(i2, j2) = (i1 + (1-2*j1)*i2 +
    flip_square*(j1 and j2), j1 xor j2), broadcast in int32."""
    i1, j1, i2, j2 = np.ix_(*(np.arange(k, dtype=np.int32) for k in (n, 2, n, 2)))
    i = (i1 + (1 - 2 * j1) * i2 + flip_square * (j1 & j2)) % n
    return (2 * i + (j1 ^ j2)).reshape(2 * n, 2 * n)


def dihedral(n: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Dihedral group of order 2n (symmetries of the n-gon for n >= 3)."""
    n = _integer(n)
    if n < 1:
        raise ValueError("dihedral parameter must be >= 1")
    check_order_cap(2 * n, order_cap)
    return Group(_two_part_table(n, 0), label=f"D{2 * n}", validate=False)


def quaternion(order: int = 8, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Generalized quaternion group of order 2^k, k >= 3."""
    order = _integer(order)
    if order < 8 or order & (order - 1):
        raise ValueError("quaternion order must be a power of two >= 8")
    check_order_cap(order, order_cap)
    n = order // 2
    return Group(_two_part_table(n, n // 2), label=f"Q{order}", validate=False)


def symmetric(n: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    n = _integer(n)
    if n < 1:
        raise ValueError("symmetric degree must be >= 1")
    gens = [tuple([1, 0] + list(range(2, n)))] if n > 1 else []
    if n > 2:
        gens.append(tuple(list(range(1, n)) + [0]))
    return from_permutation_gens(n, gens, label=f"S{n}", order_cap=order_cap)


def alternating(n: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    n = _integer(n)
    if n < 1:
        raise ValueError("alternating degree must be >= 1")
    gens = []
    for k in range(2, n):
        cycle = list(range(n))
        cycle[0], cycle[1], cycle[k] = cycle[1], cycle[k], cycle[0]
        gens.append(tuple(cycle))
    return from_permutation_gens(n, gens, label=f"A{n}", order_cap=order_cap)


def elem_abelian(p: int, k: int, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Elementary abelian group of order p^k: indices add digitwise in base p."""
    p, k = _integer(p), _integer(k)
    if k < 1 or p < 2:
        raise ValueError("need a prime p >= 2 and exponent k >= 1")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    check_order_cap(p**k, order_cap)
    idx, table = np.arange(p**k, dtype=np.int32), np.zeros((p**k, p**k), dtype=np.int32)
    for place in (p**j for j in range(k)):
        table += (idx[:, None] // place + idx // place) % p * place
    return Group(table, label=f"elab({p},{k})", validate=False)


# -- products ---------------------------------------------------------------


def direct_product(G: Group, H: Group, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Componentwise product: the pair table with the identity action, so
    pair (a, b) is encoded as a*|H| + b. A new group, not a shared one."""
    check_order_cap(G.order * H.order, order_cap)
    identity = np.broadcast_to(np.arange(G.order, dtype=np.int32), (H.order, G.order))
    table = _pair_table(G.table, H.table, identity)
    return Group(table, label=f"{G.label}x{H.label}", validate=False)


def _pair_table(N_table: np.ndarray, H_table: np.ndarray, action: np.ndarray) -> np.ndarray:
    """The table of N x| H on pairs (n, h) encoded as n*|H| + h, with
    (n1, h1)(n2, h2) = (n1 * action[h1][n2], h1*h2), broadcast into one
    int32 array indexed (n1, h1, n2, h2) with no square temporary."""
    nn, nh = len(N_table), len(H_table)
    left = N_table[np.arange(nn)[:, None, None], action[None, :, :]]  # n1 * action[h1][n2]
    return (left[:, :, :, None] * nh + H_table[None, :, None, :]).reshape(nn * nh, nn * nh)


def semidirect_product(
    N: Group,
    H: Group,
    action: np.ndarray,
    label: str | None = None,
    order_cap: int | None = DEFAULT_ORDER_CAP,
) -> Group:
    """External semidirect product N x| H for a left action of H on N.

    ``action[h]`` is the permutation of N's elements induced by h; it must
    be a homomorphism H -> Aut(N). Pair (n, h) is encoded as n*|H| + h and
    multiplies as (n1, h1)(n2, h2) = (n1 * action[h1][n2], h1*h2). The
    product is the live group of its table if there is one, so it keeps the
    label of the first group built with that table.
    """
    action = np.asarray(action, dtype=np.int32)
    if action.shape != (H.order, N.order):
        raise ValueError("action table has wrong shape")
    check_order_cap(N.order * H.order, order_cap)
    if action.min() < 0 or action.max() >= N.order:
        raise NotAGroup(f"action values out of range 0..{N.order - 1}")
    if not np.array_equal(action[0], np.arange(N.order)):
        raise NotAGroup("action of the identity is not trivial")
    lhs = action[:, N.table]
    rhs = N.table[action[:, :, None], action[:, None, :]]
    if not np.array_equal(lhs, rhs):
        raise NotAGroup("action values are not automorphisms")
    for h1 in range(H.order):
        if not np.array_equal(action[H.table[h1]], action[h1][action]):
            raise NotAGroup("action is not a homomorphism into Aut(N)")
    return _derived_group(_pair_table(N.table, H.table, action),
                          label or f"{N.label}x|{H.label}")


def semidirect_section(H: Subgroup, K: Subgroup) -> Group:
    """The section product [H/K](G/C_G(H/K)) for H and K normal in their
    group G, K <= H, within ``SECTION_PRODUCT_CAP``.

    The coset gC acts by sending hK to (g h g^-1)K; reading conjugation on
    the other side yields the same group up to isomorphism.

    The table is read off G's: the cosets of K in H, numbered by their
    least elements, give H/K, which is the product when C = C_G(H/K) is G
    (the pair-table formula with a one-element acting group gives the same
    table). Otherwise the cosets of C in G are numbered the same way, with
    the action on those representatives in one gather, valid by
    construction and so not checked again.
    """
    G, C = H.parent, centralizer_of_section(H, K)  # checks K <= H and H, K normal in G
    check_order_cap((H.order // K.order) * (G.order // C.order), SECTION_PRODUCT_CAP)
    label = f"[{H.order}/{K.order}]({G.label}/{C.order})"
    sec_reps, sec_index, sec_table = _cosets(K, H)
    if C.order == G.order:
        return _derived_group(sec_table, label)
    quo_reps, _, quo_table = _cosets(C, G.full_subgroup())
    conj = G.table[G.table[quo_reps[:, None], sec_reps], G.inverse[quo_reps][:, None]]
    return _derived_group(_pair_table(sec_table, quo_table, sec_index[conj]), label)
