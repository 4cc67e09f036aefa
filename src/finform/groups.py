"""Finite groups as dense multiplication tables over element indices.

A group of order n lives on the indices 0..n-1 with 0 always the identity.
All bulk operations (closures, conjugation, centralizers, coset maps) are
vectorised over the table, which keeps everything exhaustive and still fast
at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAGroup, NotNormal, OrderCapExceeded

DEFAULT_ORDER_CAP = 512


def _memo(owner, key, compute):
    """``owner._cache[key]``, filled by ``compute()`` on first use.

    Every engine cache goes through here: groups and subgroups own a
    ``_cache`` dict, and each result is computed once per owner object.
    """
    cache = owner._cache
    if key in cache:
        return cache[key]
    value = cache[key] = compute()
    return value


def _conjugates(G: "Group", ambient: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Matrix of g^-1 * x * g, one row per g in ``ambient``, one column per x in ``sub``."""
    return G.table[G.table[np.ix_(G.inverse[ambient], sub)], ambient[:, None]]


def check_order_cap(order: int, cap: int | None) -> None:
    if cap is not None and order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")


class Group:
    """An immutable finite group defined by its Cayley table.

    The table is a square int array; ``table[a, b]`` is the product a*b.
    Index 0 is the identity. Instances cache derived data (element orders,
    conjugacy classes, normal subgroups, ...) internally; they are safe to
    share once constructed. ``validate`` checks the whole table: identity
    at 0, every row and column a permutation, and associativity.
    """

    def __init__(self, table: np.ndarray, label: str = "G", validate: bool = True):
        table = np.ascontiguousarray(np.asarray(table, dtype=np.int32))
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("table is not square")
        n = table.shape[0]
        if n == 0:
            raise NotAGroup("empty table")
        if table.min() < 0 or table.max() >= n:
            raise NotAGroup("table entries out of range")
        self.order: int = n
        self.table: np.ndarray = table
        self.label: str = label
        self._cache: dict = {}
        if validate:
            self._validate()
        self.table.flags.writeable = False
        self.inverse: np.ndarray = (table == 0).argmax(axis=1).astype(np.int32)
        self.inverse.flags.writeable = False
        self.element_orders: np.ndarray = self._compute_element_orders()
        self.element_orders.flags.writeable = False

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        n, table = self.order, self.table
        idx = np.arange(n, dtype=np.int32)
        if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
            g = int(np.argmax((table[0] != idx) | (table[:, 0] != idx)))
            raise NotAGroup(f"index 0 is not a two-sided identity at {g}", witness=(g,))
        # Latin-square rows/columns: necessary for invertibility.
        if not (np.array_equal(np.sort(table, axis=1), np.tile(idx, (n, 1)))
                and np.array_equal(np.sort(table, axis=0), np.tile(idx[:, None], (1, n)))):
            raise NotAGroup("some row or column is not a permutation")
        for a in range(n):
            lhs = table[table[a], :]
            rhs = table[a, table]
            if not np.array_equal(lhs, rhs):
                b, c = divmod(int(np.argmax(lhs != rhs)), n)
                raise NotAGroup(
                    f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})",
                    witness=(a, b, c),
                )

    def _compute_element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int32)
        orders[0] = 1
        power = np.arange(n, dtype=np.int32)
        pending = orders == 0
        k = 1
        while pending.any():
            k += 1
            power = self.table[power, np.arange(n)]
            done = pending & (power == 0)
            orders[done] = k
            pending &= ~done
        return orders

    # -- elementwise arithmetic ----------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        acc, base = 0, g
        while k:
            if k & 1:
                acc = int(self.table[acc, base])
            base = int(self.table[base, base])
            k >>= 1
        return acc

    def conj(self, x: int, g: int) -> int:
        """g^-1 * x * g."""
        return int(self.table[self.table[self.inverse[g], x], g])

    def is_abelian(self) -> bool:
        return _memo(self, "abelian", lambda: bool(np.array_equal(self.table, self.table.T)))

    # -- subgroup handles ----------------------------------------------

    def subgroup(self, members: Iterable[int], validate: bool = True) -> "Subgroup":
        return Subgroup(self, members, validate=validate)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (0,), validate=False)

    def full_subgroup(self) -> "Subgroup":
        return _memo(self, "full_subgroup",
                     lambda: Subgroup(self, range(self.order), validate=False))

    def _classes(self) -> tuple[list[np.ndarray], np.ndarray]:
        """The conjugacy classes and the element -> class index array."""
        n = self.order
        everyone = np.arange(n)
        class_of = np.full(n, -1, dtype=np.int32)
        classes: list[np.ndarray] = []
        for x in range(n):
            if class_of[x] >= 0:
                continue
            cls = np.unique(self.table[self.table[self.inverse, x], everyone])
            class_of[cls] = len(classes)
            classes.append(cls)
        return classes, class_of

    def conjugacy_classes(self) -> list[np.ndarray]:
        """Conjugacy classes as sorted index arrays, ordered by least member."""
        return _memo(self, "classes", self._classes)[0]

    def class_of(self) -> np.ndarray:
        return _memo(self, "classes", self._classes)[1]

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"


class Subgroup:
    """A subgroup of a fixed parent group, stored as a set of element indices.

    Immutable and hashable; equality compares the member set within the same
    parent. Construction checks closure and the Lagrange sanity condition.

    Only this module knows how the members are stored. Elsewhere, compare
    subgroups with ``<=``, ``<``, ``==`` and ``in``, meet them with
    ``intersect``, read the sorted members from ``array``, and move between
    the parent and ``as_group()`` coordinates with ``localize`` and ``lift``.
    ``members`` is an opaque hashable key for the member set: use it as a
    dict or memo key and for nothing else.
    """

    def __init__(self, parent: Group, members: Iterable[int], validate: bool = True):
        self.parent = parent
        mem = sorted({int(m) for m in members})
        if not mem or mem[0] != 0:
            raise NotAGroup("subgroup must contain the identity (index 0)")
        if mem[-1] >= parent.order:
            raise ValueError("subgroup member index out of range")
        self.members: frozenset[int] = frozenset(mem)
        self.array: np.ndarray = np.asarray(mem, dtype=np.int32)
        self.order: int = len(mem)
        self._cache: dict = {}
        if parent.order % self.order:
            raise NotAGroup(
                f"subgroup size {self.order} does not divide group order {parent.order}"
            )
        if validate:
            inside = self.mask()[parent.table[np.ix_(self.array, self.array)]]
            if not inside.all():
                a, b = divmod(int(np.argmax(~inside)), self.order)
                raise NotAGroup(
                    "set is not closed under multiplication",
                    witness=(int(self.array[a]), int(self.array[b])),
                )

    def mask(self) -> np.ndarray:
        def compute():
            m = np.zeros(self.parent.order, dtype=bool)
            m[self.array] = True
            m.flags.writeable = False
            return m

        return _memo(self, "mask", compute)

    def __contains__(self, g: int) -> bool:
        return int(g) in self.members

    def __len__(self) -> int:
        return self.order

    def __le__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members <= other.members

    def __lt__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members < other.members

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def is_normal(self) -> bool:
        return _memo(self, "normal", lambda: _normal_in(self.parent.full_subgroup(), self))

    def intersect(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.members & other.members, validate=False)

    def as_group(self) -> Group:
        """This subgroup reindexed as a standalone group; ``localize`` and
        ``lift`` map subgroups into and out of it."""
        def compute():
            mem = self.array
            sub = self.parent.table[np.ix_(mem, mem)]
            local = np.searchsorted(mem, sub)
            return Group(local, label=f"{self.parent.label}.sub{self.order}", validate=False)

        return _memo(self, "group", compute)

    def localize(self, sub: "Subgroup") -> "Subgroup":
        """``sub`` (a subgroup of the parent inside self) as a subgroup of ``as_group()``."""
        if not sub <= self:
            raise ValueError("subgroup is not contained in this one")
        return Subgroup(self.as_group(), np.searchsorted(self.array, sub.array).tolist(),
                        validate=False)

    def lift(self, sub: "Subgroup") -> "Subgroup":
        """``sub`` (a subgroup of ``as_group()``) as a subgroup of the parent."""
        if sub.parent is not self.as_group():
            raise ValueError("subgroup is not a subgroup of this one's as_group()")
        return Subgroup(self.parent, self.array[sub.array].tolist(), validate=False)

    def __repr__(self) -> str:
        head = ",".join(map(str, self.array[:6].tolist()))
        tail = ",..." if self.order > 6 else ""
        return f"Subgroup(order={self.order}, members=[{head}{tail}] of {self.parent.label})"


class Homomorphism:
    """A total map between groups given by a per-element image table."""

    def __init__(self, source: Group, target: Group, mapping: Sequence[int], validate: bool = True):
        self.source = source
        self.target = target
        self.mapping = np.asarray(mapping, dtype=np.int32)
        if self.mapping.shape != (source.order,):
            raise ValueError("mapping length does not match source order")
        if validate:
            m = self.mapping
            lhs = m[source.table]
            rhs = target.table[m[:, None], m[None, :]]
            if not np.array_equal(lhs, rhs):
                a, b = divmod(int(np.argmax(lhs != rhs)), source.order)
                raise NotAGroup(
                    f"map is not multiplicative at ({a},{b})", witness=(a, b)
                )

    def __call__(self, g: int) -> int:
        return int(self.mapping[g])

    def kernel(self) -> Subgroup:
        return Subgroup(self.source, np.nonzero(self.mapping == 0)[0].tolist(), validate=False)

    def image(self) -> Subgroup:
        return Subgroup(self.target, np.unique(self.mapping).tolist(), validate=False)

    def is_injective(self) -> bool:
        return len(np.unique(self.mapping)) == self.source.order

    def is_surjective(self) -> bool:
        return len(np.unique(self.mapping)) == self.target.order

    def is_isomorphism(self) -> bool:
        return self.is_injective() and self.is_surjective()

    def __repr__(self) -> str:
        return f"Homomorphism({self.source.label} -> {self.target.label})"


@dataclass(frozen=True)
class Section:
    """A section top/bottom with bottom normal in top.

    ``g_normal`` records whether both terms are normal in the parent, which
    is what centrality tests require.
    """

    parent: Group
    top: Subgroup
    bottom: Subgroup

    def __post_init__(self):
        if not (self.bottom <= self.top):
            raise ValueError("section bottom is not contained in its top")
        if not _normal_in(self.top, self.bottom):
            raise NotNormal("section bottom is not normal in its top")

    @property
    def g_normal(self) -> bool:
        return self.top.is_normal() and self.bottom.is_normal()

    @property
    def order(self) -> int:
        return self.top.order // self.bottom.order

    def __repr__(self) -> str:
        return f"Section({self.top.order}/{self.bottom.order} of {self.parent.label})"


def _normal_in(ambient: Subgroup, sub: Subgroup) -> bool:
    """Whether ``sub`` is normal in ``ambient`` (both subgroups of one parent)."""
    return bool(sub.mask()[_conjugates(ambient.parent, ambient.array, sub.array)].all())


# -- closures and generated subgroups -----------------------------------


def generated_subgroup(G: Group, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``gens``, by right-multiplication closure."""
    gens_arr = np.unique(np.asarray(list(gens) + [0], dtype=np.int32))
    member = np.zeros(G.order, dtype=bool)
    member[0] = True
    frontier = np.array([0], dtype=np.int32)
    while frontier.size:
        prods = np.unique(G.table[np.ix_(frontier, gens_arr)])
        new = prods[~member[prods]]
        member[new] = True
        frontier = new
    return Subgroup(G, np.nonzero(member)[0].tolist(), validate=False)


def cyclic_subgroup(G: Group, g: int) -> Subgroup:
    out = [0]
    x = g
    while x != 0:
        out.append(x)
        x = int(G.table[x, g])
    return Subgroup(G, out, validate=False)


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest subgroup containing both."""
    if a <= b:
        return b
    if b <= a:
        return a
    return generated_subgroup(a.parent, a.members | b.members)


def set_product(a: Subgroup, b: Subgroup) -> frozenset[int]:
    """The set {x*y : x in a, y in b}; a subgroup iff it equals the join."""
    G = a.parent
    return frozenset(np.unique(G.table[np.ix_(a.array, b.array)]).tolist())


def centralizer(G: Group, S: Subgroup) -> Subgroup:
    """C_G(S) = elements commuting with every member of S."""
    left = G.table[:, S.array]
    right = G.table[S.array, :].T
    return Subgroup(G, np.nonzero((left == right).all(axis=1))[0].tolist(), validate=False)


def center(G: Group) -> Subgroup:
    return _memo(G, "center", lambda: centralizer(G, G.full_subgroup()))


def normal_closure(G: Group, elems: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing ``elems``."""
    gens: set[int] = {0}
    class_of = G.class_of()
    classes = G.conjugacy_classes()
    for x in set(elems):
        gens.update(classes[class_of[x]].tolist())
    return generated_subgroup(G, gens)


def normal_closure_in(ambient: Subgroup, sub: Subgroup) -> Subgroup:
    """Smallest subgroup of ``ambient`` containing ``sub`` and normal in it."""
    G = ambient.parent
    conj = _conjugates(G, ambient.array, sub.array)
    return generated_subgroup(G, np.unique(conj).tolist())


def core(ambient: Subgroup, inner: Subgroup) -> Subgroup:
    """Largest subgroup of ``inner`` normal in ``ambient`` (the core).

    Equals the intersection of the ambient-conjugates of ``inner``.
    """
    if not inner <= ambient:
        raise ValueError("core requires inner <= ambient")
    G = ambient.parent
    keep = inner.mask()[_conjugates(G, ambient.array, inner.array)].all(axis=0)
    return Subgroup(G, inner.array[keep].tolist(), validate=False)


def commutator_subgroup(G: Group, A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B] generated by commutators a^-1 b^-1 a b."""
    t = G.table
    left = t[np.ix_(G.inverse[A.array], G.inverse[B.array])]
    right = t[np.ix_(A.array, B.array)]
    gens = np.unique(t[left, right])
    return generated_subgroup(G, gens.tolist())


def derived_series(G: Group) -> list[Subgroup]:
    """Descending derived series until it stabilises."""
    def compute():
        series = [G.full_subgroup()]
        while True:
            nxt = commutator_subgroup(G, series[-1], series[-1])
            if nxt.order == series[-1].order:
                return series
            series.append(nxt)

    return _memo(G, "derived_series", compute)


def lower_central_series(G: Group) -> list[Subgroup]:
    """Descending series G >= [G,G] >= [[G,G],G] >= ... until stable."""
    series = [G.full_subgroup()]
    while True:
        nxt = commutator_subgroup(G, series[-1], G.full_subgroup())
        if nxt.order == series[-1].order:
            break
        series.append(nxt)
    return series


# -- quotients and section machinery -------------------------------------


def coset_representatives(G: Group, N: Subgroup) -> np.ndarray:
    """Array r with r[g] the least element of the coset N*g."""
    return G.table[np.ix_(N.array, np.arange(G.order))].min(axis=0)


def quotient(G: Group, N: Subgroup) -> tuple[Group, Homomorphism]:
    """The quotient group G/N with its projection; N must be normal."""
    if not N.is_normal():
        g, x = _normality_witness(G, N)
        raise NotNormal(f"{N} is not normal in {G.label}", witness=(g, x))

    def compute():
        rep = coset_representatives(G, N)
        reps = np.unique(rep)
        qindex = np.searchsorted(reps, rep)
        qtable = qindex[rep[G.table[np.ix_(reps, reps)]]]
        Q = Group(qtable, label=f"{G.label}/n{N.order}", validate=False)
        return Q, Homomorphism(G, Q, qindex, validate=False)

    return _memo(G, ("quotient", N.members), compute)


def _normality_witness(G: Group, N: Subgroup) -> tuple[int, int]:
    """The first (g, x), g in G and then x in N in increasing order, with
    g^-1 x g outside N."""
    outside = ~N.mask()[_conjugates(G, np.arange(G.order), N.array)]
    if not outside.any():
        raise AssertionError("no witness: subgroup is normal")
    g, i = divmod(int(np.argmax(outside)), N.order)
    return g, int(N.array[i])


def centralizer_of_section(G: Group, H: Subgroup, K: Subgroup) -> Subgroup:
    """C_G(H/K) = elements whose conjugation fixes every coset hK."""
    if not K <= H:
        raise ValueError("section requires K <= H")
    if not _normal_in(H, K):
        raise NotNormal("section bottom is not normal in its top")
    repK = G.table[:, K.array].min(axis=1)  # x -> least element of xK
    conj = _conjugates(G, np.arange(G.order, dtype=np.int32), H.array)  # g^-1 h g
    fixed = (repK[conj] == repK[H.array][None, :]).all(axis=1)
    return Subgroup(G, np.nonzero(fixed)[0].tolist(), validate=False)


def upper_central_series(G: Group) -> list[Subgroup]:
    """Ascending series 1 <= Z(G) <= Z_2(G) <= ... until it stabilises."""
    series = [G.trivial_subgroup()]
    while True:
        Z = series[-1]
        Q, proj = quotient(G, Z)
        zq = center(Q)
        pre = np.nonzero(np.isin(proj.mapping, zq.array))[0]
        nxt = Subgroup(G, pre.tolist(), validate=False)
        if nxt.order == Z.order:
            break
        series.append(nxt)
    return series


def hypercentre_classical(G: Group) -> Subgroup:
    """Limit of the upper central series."""
    return upper_central_series(G)[-1]
