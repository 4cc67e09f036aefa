"""Brute-force reference implementations, independent of the package.

Groups here are (elements, mul) pairs: a sorted tuple of hashable element
labels and a binary callable. The map checks and the table checks at the
end read Cayley tables instead (``table[a][b]`` is a*b on the indices
0..n-1), since a map is an image array over the source's indices and an
untrusted table need not be a group.
Everything is computed from first principles with sets, dicts and loops;
nothing imports finform. Only meant for tiny groups.
"""

from itertools import permutations


def perm_mul(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def sym_group(n):
    elems = tuple(sorted(permutations(range(n))))
    return elems, perm_mul


def identity_of(elems, mul):
    for e in elems:
        if all(mul(e, x) == x == mul(x, e) for x in elems):
            return e
    raise AssertionError("no identity")


def inverse_map(elems, mul):
    e = identity_of(elems, mul)
    return {x: next(y for y in elems if mul(x, y) == e) for x in elems}


def closure(gens, mul, e):
    out = {e}
    frontier = [e]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in out:
                    out.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(out)


def all_subgroups(elems, mul):
    """Every subgroup: {e} closed under adding one element at a time.

    <S, a> = <S, x*a> for x in S, so one element per coset S*a is enough.
    """
    e = identity_of(elems, mul)
    subs = {frozenset([e]): ()}  # each subgroup with the generators it was found by
    frontier = list(subs)
    while frontier:
        nxt = []
        for s in frontier:
            seen = set(s)
            for a in elems:
                if a not in seen:
                    seen.update(mul(x, a) for x in s)
                    gens = subs[s] + (a,)
                    t = closure(gens, mul, e)
                    if t not in subs:
                        subs[t] = gens
                        nxt.append(t)
        frontier = nxt
    return sorted(subs, key=lambda s: (len(s), sorted(map(str, s))))


def conjugate_set(sub, g, mul, inv):
    return frozenset(mul(mul(inv[g], x), g) for x in sub)


def normal_subgroups(elems, mul):
    inv = inverse_map(elems, mul)
    return [
        s
        for s in all_subgroups(elems, mul)
        if all(conjugate_set(s, g, mul, inv) == s for g in elems)
    ]


def centralizer(elems, mul, sub):
    return frozenset(g for g in elems if all(mul(g, s) == mul(s, g) for s in sub))


def quotient_group(elems, mul, N):
    """Coset group: elements are frozensets, product via representatives."""
    cosets = []
    seen = set()
    for g in elems:
        c = frozenset(mul(n, g) for n in N)
        if c not in seen:
            seen.add(c)
            cosets.append(c)
    cosets = tuple(sorted(cosets, key=lambda c: sorted(map(str, c))))
    rep = {c: sorted(c, key=str)[0] for c in cosets}
    lookup = {}
    for c in cosets:
        for x in c:
            lookup[x] = c

    def qmul(a, b):
        return lookup[mul(rep[a], rep[b])]

    return cosets, qmul


def centre(elems, mul):
    return frozenset(g for g in elems if all(mul(g, x) == mul(x, g) for x in elems))


def upper_central_limit(elems, mul):
    """Limit of the ascending central series, as a subset of elems."""
    e = identity_of(elems, mul)
    Z = frozenset([e])
    while True:
        cosets, qmul = quotient_group(elems, mul, Z)
        zq = centre(cosets, qmul)
        lifted = frozenset(x for c in zq for x in c)
        if lifted == Z:
            return Z
        Z = lifted


def is_nilpotent(elems, mul):
    return upper_central_limit(elems, mul) == frozenset(elems)


def is_cyclic(elems, mul):
    e = identity_of(elems, mul)
    for g in elems:
        if len(closure([g], mul, e)) == len(elems):
            return True
    return False


def is_supersoluble(elems, mul):
    """Search for an ascending chain of normal subgroups with cyclic factors."""
    normals = normal_subgroups(elems, mul)
    whole = frozenset(elems)

    def extend(current):
        if current == whole:
            return True
        for n in normals:
            if current < n:
                cosets, qmul = quotient_group(
                    sorted(n, key=str), mul, sorted(current, key=str)
                )
                if is_cyclic(cosets, qmul):
                    if extend(n):
                        return True
        return False

    e = identity_of(elems, mul)
    return extend(frozenset([e]))


def chief_factor_orders(elems, mul):
    """Factor orders of a chief series, built by repeated minimal refinement."""
    normals = normal_subgroups(elems, mul)
    whole = frozenset(elems)
    e = identity_of(elems, mul)
    chain = [frozenset([e])]
    while chain[-1] != whole:
        above = [n for n in normals if chain[-1] < n]
        minimal = [n for n in above if not any(m < n for m in above)]
        chain.append(minimal[0])
    return tuple(len(chain[i + 1]) // len(chain[i]) for i in range(len(chain) - 1))


def residual(elems, mul, membership):
    """Intersection of normal subgroups whose quotient satisfies membership."""
    out = frozenset(elems)
    for n in normal_subgroups(elems, mul):
        cosets, qmul = quotient_group(elems, mul, n)
        if membership(cosets, qmul):
            out = out & n
    return out


def section_centralizer(elems, mul, H, K):
    inv = inverse_map(elems, mul)
    cosets_of = {h: frozenset(mul(h, k) for k in K) for h in H}
    return frozenset(
        g
        for g in elems
        if all(cosets_of[h] == frozenset(mul(mul(mul(inv[g], h), g), k) for k in K) for h in H)
    )


def semidirect_pairs(sec_elems, sec_mul, quo_elems, quo_mul, act):
    """External semidirect product on pairs with left action act[q](s)."""
    elems = tuple((s, q) for s in sec_elems for q in quo_elems)

    def mul2(a, b):
        (s1, q1), (s2, q2) = a, b
        return (sec_mul(s1, act(q1, s2)), quo_mul(q1, q2))

    return elems, mul2


def section_product(elems, mul, H, K, L):
    """[H/K](G/L): cosets of K in H acted on by cosets of L via conjugation."""
    inv = inverse_map(elems, mul)
    sec_cosets, sec_mul = quotient_group(sorted(H, key=str), mul, sorted(K, key=str))
    quo_cosets, quo_mul = quotient_group(elems, mul, sorted(L, key=str))
    sec_lookup = {}
    for c in sec_cosets:
        for x in c:
            sec_lookup[x] = c
    quo_rep = {c: sorted(c, key=str)[0] for c in quo_cosets}

    def act(q, s):
        g = quo_rep[q]
        h = sorted(s, key=str)[0]
        return sec_lookup[mul(mul(g, h), inv[g])]

    return semidirect_pairs(sec_cosets, sec_mul, quo_cosets, quo_mul, act)


def is_f_central(elems, mul, H, K, membership):
    """Existential centrality: some admissible normal kernel works.

    Larger kernels give smaller products, so try them first.
    """
    C = section_centralizer(elems, mul, H, K)
    admissible = sorted(
        (L for L in normal_subgroups(elems, mul) if L <= C), key=len, reverse=True
    )
    for L in admissible:
        p_elems, p_mul = section_product(elems, mul, H, K, L)
        if membership(p_elems, p_mul):
            return True
    return False


def chief_factors_below(elems, mul, N):
    """(top, bottom) pairs of a chief series passing below N."""
    normals = [n for n in normal_subgroups(elems, mul) if n <= N]
    e = identity_of(elems, mul)
    chain = [frozenset([e])]
    while chain[-1] != N:
        above = [n for n in normals if chain[-1] < n]
        minimal = [n for n in above if not any(m < n for m in above)]
        chain.append(minimal[0])
    return [(chain[i + 1], chain[i]) for i in range(len(chain) - 1)]


def hypercentre(elems, mul, membership):
    """Product of normal subgroups whose chief factors below are all central."""
    e = identity_of(elems, mul)
    good = frozenset([e])
    for n in normal_subgroups(elems, mul):
        if all(
            is_f_central(elems, mul, top, bottom, membership)
            for top, bottom in chief_factors_below(elems, mul, n)
        ):
            good = closure(good | n, mul, e)
    return good


def is_homomorphism(G, H, image):
    """Whether ``image``, one entry per element of G, is a multiplicative
    map into H. G and H are read only through their Cayley tables
    (``table[a][b]`` is a*b on the indices 0..order-1)."""
    g, h = G.table.tolist(), H.table.tolist()
    img = [int(x) for x in image]
    return (len(img) == len(g) and all(0 <= y < len(h) for y in img)
            and all(img[g[a][b]] == h[img[a]][img[b]]
                    for a in range(len(g)) for b in range(len(g))))


def is_isomorphism(G, H, image):
    """Whether ``image`` is a multiplicative bijection from G onto H."""
    return is_homomorphism(G, H, image) and sorted(int(x) for x in image) == list(range(len(H.table)))


# A Latin square with identity 0 (a loop) that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 4.
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3),
         (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def first_associativity_failure(table):
    """The first (a, b, c) in row-major order with (a*b)*c != a*(b*c), or
    None when the table is associative."""
    n = len(table)
    for a in range(n):
        row_a = table[a]
        for b in range(n):
            row_ab, row_b = table[row_a[b]], table[b]
            for c in range(n):
                if row_ab[c] != row_a[row_b[c]]:
                    return a, b, c
    return None


def magma_closure(gens, table):
    """The least set holding 0 and ``gens`` that is closed under the table's
    product on both sides, found without assuming associativity."""
    out = {0, *gens}
    while True:
        more = {table[x][y] for x in out for y in out} - out
        if not more:
            return out
        out |= more
