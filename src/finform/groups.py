"""Finite groups as dense multiplication tables over element indices.

A group of order n lives on the indices 0..n-1 with 0 always the identity.
All bulk operations (closures, conjugation, centralizers, coset maps) are
vectorised over the table, which keeps everything exhaustive and still fast
at desk scale. A subgroup is an int bitmask over the indices, interned per
parent group and named by its members as ``Subgroup(G, members)``. Every
generated subgroup comes from one boolean-mask closure, ``_closure``,
except a cyclic one: ``cyclic_subgroup`` lists the powers of its
generator, about 3 times faster than the closure. N is normal in Y
exactly when ``core(Y, N) is N``. A weak registry holds every
live group under its Cayley table, first built first; quotients, subgroups
as groups and semidirect products are read from it (``_derived_group``), so
G/1 is G and a table's memos are computed once. A map between groups is an
int32 array of images indexed by the source's elements.
"""

from __future__ import annotations

import hashlib
import operator
import weakref
from typing import Iterable

import numpy as np

from .errors import NotAGroup, NotNormal, OrderCapExceeded

DEFAULT_ORDER_CAP = 512


def _memo(owner, key, compute):
    """``owner._cache[key]``, filled by ``compute()`` on first use.

    Every engine cache goes through here: groups and subgroups own a
    ``_cache`` dict, and each result is computed once per owner. Every value
    a caller gets from a memo is immutable (a tuple, a read-only array, a
    group or a subgroup), so no caller can change what later calls return.
    """
    cache = owner._cache
    if key in cache:
        return cache[key]
    value = cache[key] = compute()
    return value


def _conjugates(G: "Group", ambient: np.ndarray, sub: np.ndarray) -> np.ndarray:
    """Matrix of g^-1 * x * g, one row per g in ``ambient``, one column per x in ``sub``."""
    return G.table[G.table[G.inverse[ambient][:, None], sub], ambient[:, None]]


def _marked(n: int, idx) -> np.ndarray:
    """A boolean array of length n, True at the indices ``idx``."""
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    return mask


def check_order_cap(order: int, cap: int | None) -> None:
    if cap is not None and order > cap:
        raise OrderCapExceeded(f"order {order} exceeds cap {cap}")


class Group:
    """An immutable finite group defined by its Cayley table.

    The table is a square int array; ``table[a, b]`` is the product a*b.
    Index 0 is the identity. Instances cache derived data (element orders,
    conjugacy classes, normal subgroups, ...) internally; they are safe to
    share once constructed. ``validate`` checks the table: identity at 0,
    every row and column a permutation, and associativity by Light's test
    (Clifford & Preston, *The Algebraic Theory of Semigroups* I, 1961,
    §1.2), which compares (a*b)*g with a*(b*g) for every a, b and each g of
    a generating set, in O(n^2 * |gens|). A non-associative table raises
    NotAGroup whose witness is the first failing (a, b, c) in row-major
    order.

    ``Group(...)`` always builds a new object, registered under its table
    unless a live group holds that table already. Quotients, subgroups as
    groups and semidirect products are read from there (``_derived_group``),
    keeping the label of the table's first group, which only messages show.
    """

    def __init__(self, table: np.ndarray, label: str = "G", validate: bool = True):
        table = np.ascontiguousarray(_table_array(table), dtype=np.int32)
        n = table.shape[0]
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
        _LIVE_GROUPS.setdefault(_table_key(table), self)

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
        # Light's test: (a*b)*g == a*(b*g) for every a, b and each generator
        # g, one n x n comparison per generator. The c with (a*b)*c ==
        # a*(b*c) for all a, b form a set closed under the product, so
        # holding on generators it holds everywhere.
        for g in _magma_generators(table):
            col = table[:, g]
            if not np.array_equal(col[table], table[:, col]):
                break
        else:
            return
        raise _associativity_failure(table)

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

    # Each raises ValueError on an element index that is not an integer in
    # 0..n-1 (a float or a bool is not).

    def mul(self, a: int, b: int) -> int:
        a, b = _element_indices(self, (a, b))
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[_element_indices(self, (a,))[0]])

    def power(self, g: int, k: int) -> int:
        (g,), k = _element_indices(self, (g,)), _integer(k)
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
        x, g = _element_indices(self, (x, g))
        return int(self.table[self.table[self.inverse[g], x], g])

    def is_abelian(self) -> bool:
        return _memo(self, "abelian", lambda: bool(np.array_equal(self.table, self.table.T)))

    # -- subgroup handles ----------------------------------------------

    def trivial_subgroup(self) -> "Subgroup":
        return _interned(self, 1)

    def full_subgroup(self) -> "Subgroup":
        return _memo(self, "full_subgroup",
                     lambda: _subgroup(self, np.ones(self.order, dtype=bool)))

    def _classes(self) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The conjugacy classes and the element -> class index array, all
        read-only: each class is a slice of one read-only array of the
        elements sorted by class."""
        everyone = np.arange(self.order)
        class_of = np.full(self.order, -1, dtype=np.int32)
        count = 0
        for x in range(self.order):
            if class_of[x] < 0:  # x is the least member of a new class
                class_of[self.table[self.table[self.inverse, x], everyone]] = count
                count += 1
        by_class = np.argsort(class_of, kind="stable").astype(np.int32)
        ends = np.cumsum(np.bincount(class_of)).tolist()
        by_class.flags.writeable = class_of.flags.writeable = False
        return tuple(by_class[a:b] for a, b in zip([0] + ends, ends)), class_of

    def conjugacy_classes(self) -> tuple[np.ndarray, ...]:
        """Conjugacy classes as sorted index arrays, ordered by least member."""
        return _memo(self, "classes", self._classes)[0]

    def class_of(self) -> np.ndarray:
        return _memo(self, "classes", self._classes)[1]

    def __repr__(self) -> str:
        return f"Group({self.label!r}, order={self.order})"


def _associativity_failure(table: np.ndarray) -> NotAGroup:
    """NotAGroup naming the first (a, b, c) in row-major order with
    (a*b)*c != a*(b*c), for a square table known to have one; row a compares
    the n x n matrices (a*b)*c and a*(b*c)."""
    n = len(table)
    for a in range(n):
        lhs = table[table[a], :]
        rhs = table[a, table]
        if not np.array_equal(lhs, rhs):
            b, c = divmod(int(np.argmax(lhs != rhs)), n)
            return NotAGroup(f"associativity fails: ({a}*{b})*{c} != {a}*({b}*{c})",
                             witness=(a, b, c))
    raise AssertionError("Light's test failed but no row fails")


def _table_array(table) -> np.ndarray:
    """``table`` as a square array of integers in 0..n-1, n >= 1; NotAGroup
    otherwise. Both ``Group`` and ``from_cayley_table`` read a table here.

    The entries' own type is checked, since a cast to int reads 0.7 as 0,
    "1" as 1 and True as 1.
    """
    try:
        raw = np.asarray(table)
    except ValueError:  # rows of unequal lengths
        raise NotAGroup("table is not square") from None
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise NotAGroup("table is not square")
    if raw.dtype.kind not in "iu":
        try:
            np.asarray(table, dtype=np.int64)
        except OverflowError:  # an integer beyond int64 is out of range too
            raise NotAGroup("table entries out of range 0..n-1") from None
        except (TypeError, ValueError):  # such as None or "x"
            pass
        raise NotAGroup("table entries are not integers")
    if raw.size == 0:
        raise NotAGroup("empty table")
    if raw.min() < 0 or raw.max() >= len(raw):
        raise NotAGroup("table entries out of range 0..n-1")
    return raw


def _magma_generators(table: np.ndarray) -> list[int]:
    """Elements whose closure under the table's product is every element.

    Starting from {0}, each generator is the least element not yet reached,
    and the reached set is closed on both sides without assuming
    associativity: each round multiplies only the elements new in the round
    before by every member, in both orders, so a closure costs at most
    2 x |members|^2 table reads in all.
    """
    n = len(table)
    member = _marked(n, 0)
    gens = []
    while not member.all():
        g = int(np.argmin(member))
        gens.append(g)
        member[g] = True
        frontier = np.array([g])
        while frontier.size:
            members = member.nonzero()[0]
            new = np.zeros(n, dtype=bool)
            new[table[frontier[:, None], members]] = True
            new[table[members[:, None], frontier]] = True
            new[member] = False
            member |= new
            frontier = new.nonzero()[0]
    return gens


def _table_key(table: np.ndarray) -> tuple[int, bytes]:
    """The registry key of a C-contiguous int32 table: its order and digest."""
    return len(table), hashlib.blake2b(table.tobytes(), digest_size=16).digest()


# _table_key(table) -> the first live group built with that table
_LIVE_GROUPS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _derived_group(table: np.ndarray, label: str) -> Group:
    """The live group with this valid table, built on first use.

    ``Group.__init__`` registers each group it builds, weakly: a group lives
    while something refers to it. A key hit counts only if the tables are
    equal, so a digest collision cannot hand back a wrong group.
    """
    table = np.ascontiguousarray(table, dtype=np.int32)
    G = _LIVE_GROUPS.get(_table_key(table))
    if G is None or not np.array_equal(G.table, table):
        G = Group(table, label=label, validate=False)
    return G


class Subgroup:
    """A subgroup of a fixed parent group, interned per parent.

    ``Subgroup(parent, members)`` returns the parent's one object for that
    member set, so ``==`` and ``hash`` are identity and what a subgroup
    memoises (``as_group()``, normality, ...) is computed once per member set.
    ``members`` is an int bitmask over element indices: ``<=`` is
    ``a & ~b == 0`` and ``order`` is its popcount. Construction checks the
    identity, the index range, Lagrange and closure (this module's own
    constructions, ``_subgroup``, are closed by construction and skip the
    closure check, so every interned member set is a subgroup).

    Only this module knows how the members are stored, and nothing outside
    it reads ``members``. Elsewhere, a subgroup is its own dict and memo key;
    compare subgroups with ``<=``, ``<``, ``==`` and ``in``, meet them with
    ``intersect``, read the sorted members from ``array``, and move between
    the parent and ``as_group()`` coordinates with ``localize`` and ``lift``.
    """

    def __new__(cls, parent: Group, members: Iterable[int]):
        mem = [_integer(m) for m in members]
        if not mem or min(mem) != 0:
            raise NotAGroup("subgroup must contain the identity (index 0)")
        if max(mem) >= parent.order:
            raise ValueError("subgroup member index out of range")
        return _subgroup(parent, _marked(parent.order, mem), validate=True)

    def __init__(self, *args):
        """Empty: ``__new__`` returns a built, interned object."""

    def mask(self) -> np.ndarray:
        """The members as a read-only boolean array over the parent's elements."""
        return self._mask

    def __contains__(self, g: int) -> bool:
        """Whether g is a member; a non-integer never is."""
        try:
            g = _integer(g)
        except ValueError:
            return False
        return g >= 0 and (self.members >> g) & 1 == 1

    def __le__(self, other: "Subgroup") -> bool:
        return self.parent is other.parent and self.members & ~other.members == 0

    def __lt__(self, other: "Subgroup") -> bool:
        return self is not other and self <= other

    def is_normal(self) -> bool:
        """Whether this subgroup is normal in its parent: its own core there."""
        return core(self.parent.full_subgroup(), self) is self

    def intersect(self, other: "Subgroup") -> "Subgroup":
        _check_parent(self.parent, other)
        return _interned(self.parent, self.members & other.members)

    def as_group(self) -> Group:
        """This subgroup reindexed as a standalone group: the live group with
        the reindexed table, so the whole group's is the parent itself;
        ``localize`` and ``lift`` map subgroups into and out of it."""
        def compute():
            mem = self.array
            local = np.zeros(self.parent.order, dtype=np.int32)
            local[mem] = np.arange(self.order, dtype=np.int32)
            return _derived_group(local[self.parent.table[mem[:, None], mem]],
                                  f"{self.parent.label}.sub{self.order}")

        return _memo(self, "group", compute)

    def localize(self, sub: "Subgroup") -> "Subgroup":
        """``sub`` (a subgroup of the parent inside self) as a subgroup of
        ``as_group()``, in this subgroup's coordinates: local index i is
        ``array[i]``."""
        if not sub <= self:
            raise ValueError("subgroup is not contained in this one")
        return _memo(self, ("localize", sub),
                     lambda: _subgroup(self.as_group(), sub.mask()[self.array]))

    def lift(self, sub: "Subgroup") -> "Subgroup":
        """``sub`` (a subgroup of ``as_group()``) as a subgroup of the parent.

        ``as_group()`` may be shared with other subgroups of the same table,
        so the coordinates belong to the subgroup that lifts: local index i
        is ``array[i]``.
        """
        if sub.parent is not self.as_group():
            raise ValueError("subgroup is not a subgroup of this one's as_group()")
        return _memo(self, ("lift", sub), lambda: _subgroup(
            self.parent, _marked(self.parent.order, self.array[sub.array])))

    def __repr__(self) -> str:
        head = ",".join(map(str, self.array[:6].tolist()))
        tail = ",..." if self.order > 6 else ""
        return f"Subgroup(order={self.order}, members=[{head}{tail}] of {self.parent.label})"


def _interned(G: Group, bits: int, mask: np.ndarray | None = None,
              validate: bool = False) -> Subgroup:
    """G's subgroup with member bitmask ``bits``, built from ``mask`` (or
    ``bits``) on first use; nothing is kept when a check fails."""
    def build():
        m = mask if mask is not None else np.unpackbits(
            np.frombuffer(bits.to_bytes(-(-G.order // 8), "little"), dtype=np.uint8),
            count=G.order, bitorder="little").view(bool)
        array = m.nonzero()[0].astype(np.int32)
        if G.order % len(array):
            raise NotAGroup(f"subgroup size {len(array)} does not divide group order {G.order}")
        if validate:
            inside = m[G.table[array[:, None], array]]
            if not inside.all():
                a, b = divmod(int(np.argmax(~inside)), len(array))
                raise NotAGroup("set is not closed under multiplication",
                                witness=(int(array[a]), int(array[b])))
        sub = object.__new__(Subgroup)
        sub.parent, sub.members, sub.order, sub.array, sub._mask = G, bits, len(array), array, m
        sub._cache = {}
        array.flags.writeable = m.flags.writeable = False
        return sub

    return _memo(G, ("subgroup", bits), build)


def _subgroup(G: Group, mask: np.ndarray, validate: bool = False) -> Subgroup:
    """G's subgroup whose members are the True entries of a boolean ``mask``."""
    bits = int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")
    return _interned(G, bits, mask, validate)


def _check_parent(G: Group, A: Subgroup) -> None:
    """ValueError unless A is a subgroup of this very Group object."""
    if A.parent is not G:
        raise ValueError(f"{A} belongs to another Group object than {G!r}")


# -- closures and generated subgroups -----------------------------------


def _integer(x) -> int:
    """``x`` as an int; ValueError for a bool or a non-integer, such as 1.7,
    which ``int()`` would read as 1."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{x!r} is not an integer") from None


def _element_indices(G: Group, elems: Iterable[int]) -> np.ndarray:
    """``elems`` as an index array; ValueError for one that is not an
    integer in 0..|G|-1."""
    idx = [_integer(x) for x in elems]
    if idx and not 0 <= min(idx) <= max(idx) < G.order:
        raise ValueError("element index out of range")
    return np.array(idx, dtype=np.int64)


def generated_subgroup(G: Group, gens: Iterable[int]) -> Subgroup:
    """The subgroup generated by ``gens``, by right-multiplication closure."""
    return _closure(G, _marked(G.order, _element_indices(G, gens)))


def _closure(G: Group, gens: np.ndarray) -> Subgroup:
    """The subgroup generated by the True entries of the boolean mask ``gens``.

    Each round multiplies the elements new in the round before on the right
    by every member found so far. The members always include the
    generators, so each member times each generator is reached, and the
    member set is the subgroup once a round adds nothing. After round k the
    members hold every product of at most 2^k generators (split such a
    product after its longest prefix among the members: that prefix is new
    in round k and the rest is a member), so H closes in about log2 |H|
    rounds, where multiplying by the generators alone takes m rounds for a
    cyclic subgroup of order m. A round costs |frontier| x |members| table
    reads, and a member set over half of G is G, which cuts the rounds
    that would only confirm it.
    """
    member = gens.copy()
    member[0] = True
    frontier = member.nonzero()[0][1:]
    while frontier.size:
        members = member.nonzero()[0]
        if 2 * members.size > G.order:  # Lagrange: no proper subgroup is this large
            member[:] = True
            break
        new = np.zeros(G.order, dtype=bool)
        new[G.table[frontier[:, None], members]] = True
        new[member] = False
        member |= new
        frontier = new.nonzero()[0]
    return _subgroup(G, member)


def cyclic_subgroup(G: Group, g: int) -> Subgroup:
    out = [0]
    x = g
    while x != 0:
        out.append(x)
        x = int(G.table[x, g])
    return _subgroup(G, _marked(G.order, out))


def join(a: Subgroup, b: Subgroup) -> Subgroup:
    """Smallest subgroup containing both."""
    if a <= b:
        return b
    if b <= a:
        return a
    _check_parent(a.parent, b)
    return _closure(a.parent, a.mask() | b.mask())


def centralizer(S: Subgroup) -> Subgroup:
    """C_G(S) = elements of S's group G commuting with every member of S."""
    G = S.parent
    return _subgroup(G, (G.table[:, S.array] == G.table[S.array, :].T).all(axis=1))


def center(G: Group) -> Subgroup:
    return _memo(G, "center", lambda: centralizer(G.full_subgroup()))


def normal_closure(G: Group, elems: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup of G containing ``elems``."""
    class_of = G.class_of()
    hit = _marked(len(G.conjugacy_classes()), class_of[_element_indices(G, elems)])
    return _closure(G, hit[class_of])


def normal_closure_in(ambient: Subgroup, sub: Subgroup) -> Subgroup:
    """Smallest subgroup of ``ambient`` containing ``sub`` and normal in it."""
    G = ambient.parent
    _check_parent(G, sub)
    return _closure(G, _marked(G.order, _conjugates(G, ambient.array, sub.array)))


def core(ambient: Subgroup, inner: Subgroup) -> Subgroup:
    """Largest subgroup of ``inner`` normal in ``ambient`` (the core): the
    intersection of the ambient-conjugates of ``inner``, memoised on ``inner``.

    Subgroups are interned, so the core is ``inner`` itself exactly when
    ``inner`` is normal in ``ambient``; every normality test reads this memo.
    """
    def compute():
        if not inner <= ambient:
            raise ValueError("core requires inner <= ambient")
        G = ambient.parent
        keep = inner.mask()[_conjugates(G, ambient.array, inner.array)].all(axis=0)
        return _subgroup(G, _marked(G.order, inner.array[keep]))

    return _memo(inner, ("core", ambient), compute)


def commutator_subgroup(A: Subgroup, B: Subgroup) -> Subgroup:
    """[A, B] generated by commutators a^-1 b^-1 a b."""
    G = A.parent
    _check_parent(G, B)
    t, inv = G.table, G.inverse
    comms = t[t[inv[A.array][:, None], inv[B.array]], t[A.array[:, None], B.array]]
    return _closure(G, _marked(G.order, comms))


def _until_stable(first: Subgroup, step) -> tuple[Subgroup, ...]:
    """(first, step(first), step(step(first)), ...) while the order changes."""
    series = [first]
    while (nxt := step(series[-1])).order != series[-1].order:
        series.append(nxt)
    return tuple(series)


def derived_series(G: Group) -> tuple[Subgroup, ...]:
    """Descending derived series until it stabilises."""
    return _memo(G, "derived_series", lambda: _until_stable(
        G.full_subgroup(), lambda X: commutator_subgroup(X, X)))


# -- quotients and section machinery -------------------------------------


def _coset_least(N: Subgroup) -> np.ndarray:
    """The map x -> (least element of xN) over all of N's group, memoised on N.

    ``_cosets`` and ``centralizer_of_section`` both read it, so N's cosets
    are read once for every quotient and section that N ends.
    """
    def compute():
        least = N.parent.table[:, N.array].min(axis=1)
        least.flags.writeable = False
        return least

    return _memo(N, "coset_least", compute)


def _cosets(N: Subgroup, within: Subgroup) -> tuple[np.ndarray, ...]:
    """The cosets of N in ``within``, for N normal in ``within``.

    The least elements are read from ``_coset_least``, the left cosets xN
    over all of N's group G: xN = Nx for every x in ``within``, where N is
    normal, and the entries outside ``within`` are never read.

    Returns the least element of each coset, sorted (coset i is the one
    with the i-th least representative); the coset index of every element
    of ``within`` (an array over G's elements, -1 outside ``within``); and
    the table of the quotient ``within``/N on those indices.
    """
    G = N.parent
    least = _coset_least(N)[within.array]
    reps = within.array[least == within.array]  # each coset's least element, sorted
    index = np.full(G.order, -1, dtype=np.int32)
    index[within.array] = np.searchsorted(reps, least)
    return reps, index, index[G.table[reps[:, None], reps]]


def quotient(N: Subgroup) -> tuple[Group, np.ndarray]:
    """The quotient group G/N of N's group G and its projection, the
    read-only array of each element's coset number in G/N; N must be normal."""
    def compute():
        _require_normal(N)
        G = N.parent
        _, index, qtable = _cosets(N, G.full_subgroup())
        index.flags.writeable = False
        return _derived_group(qtable, f"{G.label}/n{N.order}"), index

    return _memo(N.parent, ("quotient", N), compute)


def _require_normal(N: Subgroup, name: str | None = None) -> None:
    """The one normality guard: when N is not normal in its group G,
    NotNormal witnessed by the first (g, x), g in G and then x in N in
    increasing order, with g^-1 x g outside N. ``name`` stands for N in the
    message."""
    if not N.is_normal():
        G = N.parent
        outside = ~N.mask()[_conjugates(G, np.arange(G.order), N.array)]
        g, i = divmod(int(np.argmax(outside)), N.order)
        raise NotNormal(f"{name or N} is not normal in {G.label}", witness=(g, int(N.array[i])))


def centralizer_of_section(H: Subgroup, K: Subgroup) -> Subgroup:
    """C_G(H/K) = elements of H's group G whose conjugation fixes every coset hK.

    H and K must be normal subgroups of G with K <= H (``_require_normal``
    and ValueError); the checks run once per section, with the memo. A
    trivial section H = K is centralized by all of G, with no conjugation
    read; otherwise the cosets hK are read from ``_coset_least``.
    """
    def compute():
        _require_normal(H, "H")
        if not K <= H:
            raise ValueError("section requires K <= H")
        _require_normal(K, "K")
        G = H.parent
        if H == K:
            return G.full_subgroup()
        repK = _coset_least(K)
        conj = _conjugates(G, np.arange(G.order, dtype=np.int32), H.array)  # g^-1 h g
        return _subgroup(G, (repK[conj] == repK[H.array][None, :]).all(axis=1))

    return _memo(H.parent, ("centralizer_of_section", H, K), compute)


def upper_central_series(G: Group) -> tuple[Subgroup, ...]:
    """Ascending series 1 <= Z(G) <= Z_2(G) <= ... until it stabilises; the
    last term is the classical hypercentre."""
    def step(Z: Subgroup) -> Subgroup:
        Q, proj = quotient(Z)
        return _subgroup(G, center(Q).mask()[proj])

    return _until_stable(G.trivial_subgroup(), step)
