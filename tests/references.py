"""Earlier engine routines, kept as references for the ones that replaced
them.

The membership tests each follow their class's textbook definition through
the package's own subgroup arithmetic: the lower central series for
nilpotence, the derived series for solubility, and a descent through
minimal normal subgroups and quotients for supersolubility.
``is_soluble_by_chief_series`` and ``is_supersoluble_by_chief_series`` are
the engine's membership tests as they were before they stopped building a
chief series: every chief factor of prime-power order, and of prime order.
``class_closures`` takes one normal closure per conjugacy class.
``semidirect_section`` builds a section product through derived groups:
the section as a quotient of ``H.as_group()``, the quotient ``G/L``, and an
action handed to the checking ``semidirect_product``.
``cosets`` reads the least element of each coset Nx of ``within`` straight
off G's table, as ``groups._cosets`` did before it read the memoised
coset-least array.
``central_sections_restrict_to_subgroups`` and ``central_sections_refine``
are the lemma laws as they were before they read per-group verdict tables:
they decide every item through ``is_f_central`` on its own.
``minimal_supplement_membership`` is the lemma law as it was before it kept
the minimal supplements found so far: it compares every pair of
supplements.
``two_part_table``, ``direct_product_table``, ``permutation_gens_table`` and
``automorphism_table`` are the table builders as they were before the pair
table and the permutation table served them: four nested loops for the
dihedral and quaternion families, two gathers for the direct product, and
one dict lookup per pair of permutations or automorphisms.
``catalog_groups`` is the catalog as it was deduplicated before family
groups carried direct-factor keys: every seed and every pairwise product is
built, and the first of each isomorphism type is kept by
``is_isomorphic`` within fingerprint buckets.
``generating_set``, ``bfs_script`` and ``search_embeddings`` are the
isomorphism search as it was before one word script per group served it:
the generators are found by subgroup closure and found again by the
breadth-first script, and every search node replays every earlier step and
checks each written image against the one already there.
``chain_search`` is the chain decider as it was before one top-down pass
per group and chain kind decided every subgroup: a breadth-first search
from one subgroup up to its group, for a step rule ``definition_step``
builds from a class test. ``chain_holds`` re-checks a witness chain
against such a rule.
"""

import numpy as np

from finform import (
    SearchBudgetExceeded,
    chief_series,
    direct_product,
    is_isomorphic,
    load_group_file,
    normal_closure,
    quotient,
    semidirect_product,
)
from finform.formations import is_f_central, is_prime
from finform.lattice import _prime_factors
from finform.construct import compose
from finform.groups import (
    DEFAULT_ORDER_CAP,
    commutator_subgroup,
    core,
    derived_series,
    generated_subgroup,
)
from finform.morphisms import fingerprint
from finform.lattice import overgroups
from finform.subnormal import F_STEP, NORMAL_STEP, WitnessChain, _core_quotient
from finform.verify import _family_seeds


def lower_central_series(G):
    """G >= [G,G] >= [[G,G],G] >= ... until the order stops changing."""
    whole = G.full_subgroup()
    series = [whole]
    while (nxt := commutator_subgroup(series[-1], whole)).order != series[-1].order:
        series.append(nxt)
    return series


def is_nilpotent(G) -> bool:
    return lower_central_series(G)[-1].order == 1


def is_soluble(G) -> bool:
    return derived_series(G)[-1].order == 1


def some_minimal_normal(G):
    """Any minimal normal subgroup, found by normal-closure descent."""
    reps = [int(c[0]) for c in G.conjugacy_classes() if int(c[0]) != 0]
    current = normal_closure(G, [reps[0]])
    changed = True
    while changed:
        changed = False
        for y in reps:
            if y in current:
                smaller = normal_closure(G, [y])
                if smaller < current:
                    current = smaller
                    changed = True
                    break
    return current


def is_supersoluble(G) -> bool:
    """Soluble, and every group in the tower G, G/M, (G/M)/M', ... of
    quotients by minimal normal subgroups has a minimal normal subgroup of
    prime order."""
    if not is_soluble(G):
        return False
    Q = G
    while Q.order > 1:
        M = some_minimal_normal(Q)
        if not is_prime(M.order):
            return False
        Q = quotient(M)[0]
    return True


def chief_factor_orders(G) -> tuple[int, ...]:
    """|top/bottom| for each chief factor of ``chief_series(G)``, lowest first."""
    terms = chief_series(G)
    return tuple(top.order // bottom.order for top, bottom in zip(terms[1:], terms))


def is_soluble_by_chief_series(G) -> bool:
    return all(len(_prime_factors(o)) == 1 for o in chief_factor_orders(G))


def is_supersoluble_by_chief_series(G) -> bool:
    return all(is_prime(o) for o in chief_factor_orders(G))


def class_closures(G):
    """The distinct normal closures ncl(x) of the nontrivial elements x: one
    closure per conjugacy class, in class order."""
    return list(dict.fromkeys(
        normal_closure(G, [int(cls[0])]) for cls in G.conjugacy_classes()[1:]))


def semidirect_section(G, H, K, L):
    """[H/K](G/L) for K <= H and L normal in G, L centralizing H/K."""
    Hgrp = H.as_group()
    sec, sec_proj = quotient(H.localize(K))
    quo, _ = quotient(L)

    # one parent-group representative per section element (first occurrence)
    first_local = np.full(sec.order, -1, dtype=np.int32)
    for local in range(Hgrp.order):
        q = int(sec_proj[local])
        if first_local[q] < 0:
            first_local[q] = local
    sec_reps = H.array[first_local]
    quo_reps = np.unique(G.table[L.array].min(axis=0))  # least element of each coset L*g

    action = np.empty((quo.order, sec.order), dtype=np.int32)
    for qi in range(quo.order):
        g = int(quo_reps[qi])
        conj = G.table[G.table[g, sec_reps], G.inverse[g]]  # stays in H since H is normal
        action[qi] = sec_proj[np.searchsorted(H.array, conj)]
    return semidirect_product(sec, quo, action, order_cap=None)


def cosets(G, N, within):
    """The cosets of N in ``within`` (N normal in ``within``): sorted least
    elements, the coset index over G (-1 outside ``within``), the quotient
    table."""
    least = G.table[N.array].take(within.array, axis=1).min(axis=0)  # least of N*x
    reps = np.unique(least)
    index = np.full(G.order, -1, dtype=np.int32)
    index[within.array] = np.searchsorted(reps, least)
    return reps, index, index[G.table[reps[:, None], reps]]


def central_sections_restrict_to_subgroups(c):
    """An F-central section R/S stays F-central when cut down to a subgroup."""
    if c.F.hereditary:
        for S, R in c.central_pairs:
            for E in c.subgroups:
                er, es = E.localize(E.intersect(R)), E.localize(E.intersect(S))
                ok = is_f_central(er, es, c.F)
                yield None if ok else {
                    "section": [R.order, S.order], "subgroup": E.array.tolist()
                }


def central_sections_refine(c):
    """A normal T between S and R splits an F-central R/S into F-central parts."""
    for S, R in c.central_pairs:
        for T in c.normals:
            if S <= T <= R:
                ok = is_f_central(T, S, c.F) and is_f_central(R, T, c.F)
                yield None if ok else {"section": [R.order, S.order], "middle": T.order}


def minimal_supplement_membership(c):
    """A minimal supplement of a normal N with G/N in F is in F."""
    for N in c.normals:
        if c.F.contains(quotient(N)[0]):
            supplements = c.supplements[N]
            for U in supplements:
                if not any(V < U for V in supplements):
                    ok = c.F.contains(U.as_group())
                    yield None if ok else {
                        "normal": N.array.tolist(),
                        "supplement": U.array.tolist(),
                    }


def two_part_table(n, flip_square):
    """Table on pairs (i, j), i mod n, j in {0,1}, with b*a = a^-1*b and
    b^2 = a^flip_square; index = 2*i + j."""
    size = 2 * n
    table = np.empty((size, size), dtype=np.int32)
    for i1 in range(n):
        for j1 in range(2):
            for i2 in range(n):
                for j2 in range(2):
                    if j1 == 0:
                        i, j = (i1 + i2) % n, j2
                    elif j2 == 0:
                        i, j = (i1 - i2) % n, 1
                    else:
                        i, j = (i1 - i2 + flip_square) % n, 0
                    table[2 * i1 + j1, 2 * i2 + j2] = 2 * i + j
    return table


def direct_product_table(G, H):
    """Componentwise product; pair (a, b) is encoded as a*|H| + b."""
    nh = H.order
    a = np.arange(G.order * nh, dtype=np.int32)
    g_part, h_part = a // nh, a % nh
    return (
        G.table[np.ix_(g_part, g_part)] * nh + H.table[np.ix_(h_part, h_part)]
    ).astype(np.int32)


def permutation_gens_table(degree, gens):
    """The closure of ``gens`` numbered breadth-first from the identity,
    with each product looked up in a dict."""
    identity = tuple(range(degree))
    index = {identity: 0}
    elements = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in index:
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt
    n = len(elements)
    table = np.empty((n, n), dtype=np.int32)
    for i, p in enumerate(elements):
        for j, q in enumerate(elements):
            table[i, j] = index[compose(p, q)]
    return table


def automorphism_table(perms):
    """The table of the automorphisms ``perms`` under composition p.q."""
    index = {p.tobytes(): i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.empty((m, m), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[p[q].tobytes()]  # function composition p.q
    return table


def dedupe(groups):
    """Keep the first representative of each isomorphism type."""
    kept = []
    buckets = {}
    for g in groups:
        bucket = buckets.setdefault(fingerprint(g), [])
        if any(is_isomorphic(g, rep) is not None for rep in bucket):
            continue
        bucket.append(g)
        kept.append(g)
    return kept


def catalog_groups(max_order, files=(), order_cap=DEFAULT_ORDER_CAP):
    """The seeds, their pairwise direct products within the bound, and the
    user files, deduplicated up to isomorphism by search."""
    base = dedupe([build() for _, build in _family_seeds(max_order)])
    everything = list(base)
    for i, a in enumerate(base):
        if a.order < 2:
            continue
        for b in base[i:]:
            if b.order < 2 or a.order * b.order > max_order:
                continue
            everything.append(direct_product(a, b, order_cap=order_cap))
    for path in files:
        g = load_group_file(path, order_cap=order_cap)
        if g.order <= max_order:
            everything.append(g)
    return dedupe(everything)


def generating_set(G):
    """Greedy generators: by descending order, then index, each outside the
    subgroup generated so far."""
    by_order = sorted(range(G.order), key=lambda g: (-int(G.element_orders[g]), g))
    gens = []
    current = G.trivial_subgroup()
    for g in by_order:
        if current.order == G.order:
            break
        if g in current:
            continue
        gens.append(g)
        current = generated_subgroup(G, gens)
    return gens


def bfs_script(G, gens):
    """Per prefix gens[:i+1], the member array of the generated subgroup and
    the (element, parent, gen_index) steps reaching all of it."""
    members_per_level = []
    scripts = []
    known = {0}
    script_all = []
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


def _element_invariant(G):
    class_sizes = np.empty(G.order, dtype=np.int32)
    for c in G.conjugacy_classes():
        class_sizes[c] = len(c)
    return np.stack([G.element_orders, class_sizes], axis=1)


def search_embeddings(G, H, budget, find_all):
    """Bijective multiplicative maps G -> H via generator-image backtracking."""
    gens = generating_set(G)
    if not gens:  # trivial group
        return [np.zeros(1, dtype=np.int32)] if H.order == 1 else []
    members, scripts = bfs_script(G, gens)
    inv_G = _element_invariant(G)
    inv_H = _element_invariant(H)
    candidates = [
        np.nonzero((inv_H == inv_G[g]).all(axis=1))[0].astype(np.int32) for g in gens
    ]
    found = []
    nodes = 0

    def dfs(level, current):
        nonlocal nodes
        for img in candidates[level]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"isomorphism search exceeded {budget} nodes")
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


def definition_step(quotient_ok, normal_steps=True):
    """The step rule as defined: low < high is a normal step when low is its
    own core in high, else an f-step when high / core passes the test."""
    def step(low, high):
        if normal_steps and core(high, low) == low:
            return NORMAL_STEP
        if quotient_ok(_core_quotient(low, high)):
            return F_STEP
        return None

    return step


def chain_holds(chain, step):
    """Whether each step of ``chain`` rises strictly and is tagged with the
    kind the rule ``step`` gives it; a chain of normal steps only is checked
    with ``definition_step(lambda Q: False)``."""
    pairs = zip(chain.terms, chain.terms[1:], chain.step_kinds)
    return all(low < high and step(low, high) == kind for low, high, kind in pairs)


def chain_search(A, step):
    """Breadth-first shortest chain from A to its group, from each term to
    its overgroups in lattice order, so ties go to the earliest overgroup."""
    top = A.parent.full_subgroup()
    chains = {A: ((A,), ())}  # the first (terms, step kinds) found to each subgroup reached
    queue = [A]
    while queue:
        nxt_queue = []
        for X in queue:
            for Y in overgroups(X):  # X first, G last
                if Y in chains:
                    continue
                kind = step(X, Y)
                if kind is None:
                    continue
                terms, kinds = chains[X]
                chains[Y] = (terms + (Y,), kinds + (kind,))
                if Y is top:
                    return WitnessChain(*chains[Y])
                nxt_queue.append(Y)
        queue = nxt_queue
    return WitnessChain(*chains[A]) if A is top else None
