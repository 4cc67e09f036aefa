"""Catalog generation and exhaustive desk-scale verification sweeps.

Each sweep walks the catalog, decides per instance whether the claim's
hypothesis applies, asserts the conclusion where it does, and reports
everything: instances checked, instances where the hypothesis held,
skipped instances with machine-checkable reasons, and fully reproducible
counterexample records (including Cayley data) on any conclusion failure.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import construct
from .errors import (
    GroupError,
    LatticeBudgetExceeded,
    OrderCapExceeded,
    SearchBudgetExceeded,
)
from .files import load_group_file
from .formations import (
    Formation,
    NILPOTENT,
    SUPERSOLUBLE,
    SigmaPartition,
    hypercentre,
    is_f_central,
    is_f_hypercentral,
    is_sigma_central,
    residual,
    section_product,
    sigma_nilpotent_formation,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Subgroup,
    centralizer,
    join,
    quotient,
    upper_central_series,
)
from .lattice import (
    DEFAULT_LATTICE_BUDGET,
    _prime_factors,
    all_subgroups,
    chief_series,
    frattini,
    is_prime,
    minimal_normal_subgroups,
    normal_subgroups,
    overgroups,
)
from .morphisms import DEFAULT_SEARCH_BUDGET, automorphisms, is_isomorphic
from .subnormal import (
    is_f_subnormal,
    is_k_f_subnormal,
    is_sigma_subnormal,
    is_subnormal,
)

# -- catalog -----------------------------------------------------------------


@dataclass
class Catalog:
    """Groups under test, with provenance labels and the order bound used."""

    groups: list[Group]
    max_order: int
    description: str

    def __iter__(self):
        return iter(self.groups)

    def __len__(self):
        return len(self.groups)


FactorKey = tuple[str, ...]


def _cyclic_key(n: int) -> list[str]:
    """C_n as C_{p^k}, one for each prime power p^k exactly dividing n."""
    key = []
    for p in _prime_factors(n):
        q = p
        while n % (q * p) == 0:
            q *= p
        key.append(f"C{q}")
    return key


def _dihedral_key(half: int) -> list[str]:
    """D_{2 half}: C2 x D_{half} when half = 2m with m odd, S3 for D6, else itself."""
    if half == 3:
        return ["S3"]
    if half % 4 == 2:
        return ["C2", *_dihedral_key(half // 2)]
    return [f"D{2 * half}"]


def _family_seeds(max_order: int) -> list[tuple[FactorKey, Callable[[], Group]]]:
    """The family seeds in catalog order, each as (key, builder); no seed is
    larger than ``max_order``, so the builders apply no order cap.

    The key is the sorted multiset of the seed's indecomposable direct
    factors. By the Krull-Remak-Schmidt theorem (Robinson, A Course in the
    Theory of Groups, 3.3.8) these are unique up to isomorphism and order,
    so two seeds, or two direct products of seeds, are isomorphic exactly
    when their keys are equal.
    """
    seeds: list[tuple[FactorKey, Callable[[], Group]]] = []

    def add(key, build, *args):
        seeds.append((tuple(sorted(key)), functools.partial(build, *args, order_cap=None)))

    for n in range(1, max_order + 1):
        add(_cyclic_key(n), construct.cyclic, n)
    for n in (3, 4):
        if math.factorial(n) <= max_order:
            add([f"S{n}"], construct.symmetric, n)
    for n in (4, 5):
        if math.factorial(n) // 2 <= max_order:
            add([f"A{n}"], construct.alternating, n)
    for half in range(3, max_order // 2 + 1):
        add(_dihedral_key(half), construct.dihedral, half)
    q = 8
    while q <= max_order:
        add([f"Q{q}"], construct.quaternion, q)
        q *= 2
    p = 2
    while p * p <= max_order:
        if is_prime(p):
            k = 2
            while p**k <= max_order:
                add([f"C{p}"] * k, construct.elem_abelian, p, k)
                k += 1
        p += 1
    return seeds


def catalog_generate(
    max_order: int,
    files: tuple[str, ...] = (),
    order_cap: int | None = DEFAULT_ORDER_CAP,
) -> Catalog:
    """Deterministic catalog: named families, their pairwise direct products
    within the bound, and any user-supplied group files; deduplicated up to
    isomorphism (first construction wins).

    Family groups and their products are deduplicated by their keys of
    indecomposable direct factors, and a product is built only when its key
    is new. A user file's group is kept unless ``is_isomorphic`` finds it
    among the groups already kept. ``order_cap`` bounds ``max_order`` and the
    user files; the families and products stay within ``max_order``.
    """
    if order_cap is not None and max_order > order_cap:
        raise OrderCapExceeded(f"max_order {max_order} exceeds order cap {order_cap}")
    kept: dict[FactorKey, Group] = {}
    for key, build in _family_seeds(max_order):
        if key not in kept:
            kept[key] = build()
    base = list(kept.items())
    for i, (ka, a) in enumerate(base):
        if a.order < 2:
            continue
        for kb, b in base[i:]:
            if b.order < 2 or a.order * b.order > max_order:
                continue
            key = tuple(sorted(ka + kb))
            if key not in kept:
                kept[key] = construct.direct_product(a, b, order_cap=None)
    groups = list(kept.values())
    for path in files:
        g = load_group_file(path, order_cap=order_cap)
        if g.order <= max_order and all(
            is_isomorphic(g, h) is None for h in groups if h.order == g.order
        ):
            groups.append(g)
    desc = (
        f"catalog(max_order={max_order}): cyclic, symmetric, alternating, "
        f"dihedral, quaternion, elementary-abelian families, pairwise direct "
        f"products within the bound, {len(files)} user file(s); "
        f"{len(groups)} groups after isomorphism dedup. Coverage is these "
        f"families only, not all isomorphism types."
    )
    return Catalog(groups, max_order, desc)


# -- reports -----------------------------------------------------------------


@dataclass
class VerificationReport:
    """Outcome of one sweep; PASS means no conclusion failures."""

    claim: str
    formation: str | None
    sigma: str | None
    coverage: str
    checked: int = 0
    asserted: int = 0
    skipped: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    elapsed_ms: int | None = None

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def budget_exhausted(self) -> bool:
        return any(s.get("reason") in ("budget-exceeded", "order-cap-exceeded")
                   for s in self.skipped)

    def to_dict(self, include_timing: bool = False) -> dict:
        return {
            "claim": self.claim,
            "formation": self.formation,
            "sigma": self.sigma,
            "coverage": self.coverage,
            "checked": self.checked,
            "asserted": self.asserted,
            "skipped": self.skipped,
            "failures": self.failures,
            "extras": self.extras,
            "verdict": "PASS" if self.passed else "FAIL",
            "elapsed_ms": self.elapsed_ms if include_timing else None,
        }

    def to_text(self) -> str:
        lines = [
            f"claim: {self.claim}"
            + (f"  formation: {self.formation}" if self.formation else "")
            + (f"  sigma: {self.sigma}" if self.sigma else ""),
            f"  checked {self.checked} instance(s); hypothesis satisfied on "
            f"{self.asserted}; {len(self.skipped)} skipped/vacuous; "
            f"{len(self.failures)} failure(s)",
        ]
        reasons: dict[str, int] = {}
        for s in self.skipped:
            reasons[s.get("reason", "?")] = reasons.get(s.get("reason", "?"), 0) + 1
        for r in sorted(reasons):
            lines.append(f"    skipped[{r}]: {reasons[r]}")
        for f in self.failures[:10]:
            lines.append(f"    FAILURE: {f}")
        if len(self.failures) > 10:
            lines.append(f"    ... and {len(self.failures) - 10} more failures")
        if self.extras:
            for k in sorted(self.extras):
                lines.append(f"    {k}: {self.extras[k]}")
        verdict = "PASS" if self.passed else "FAIL"
        if self.elapsed_ms is not None:
            lines.append(f"  {verdict} ({self.elapsed_ms} ms)")
        else:
            lines.append(f"  {verdict}")
        return "\n".join(lines)


def _members(S: Subgroup) -> list[int]:
    return S.array.tolist()


def _skip(rep: VerificationReport, G: Group, reason: str, detail: str, **where) -> None:
    """Record a skipped instance on G; ``where`` locates it inside G."""
    rep.skipped.append({"group": G.label, **where, "reason": reason, "detail": detail})


def _fail(rep: VerificationReport, G: Group, **fields) -> None:
    """Record a failure on G, with G's Cayley table so it can be replayed."""
    rep.failures.append({"group": G.label, "order": G.order, **fields,
                         "cayley": G.table.tolist()})


def _sweep(
    catalog: Catalog,
    claim: str,
    F: Formation,
    body: Callable[[VerificationReport, Group], None],
    **extras,
) -> VerificationReport:
    """The report of ``claim`` for F, built by running ``body`` on each
    catalog group, and timed; the only place a report is made.

    The report names F and, for a sigma-nilpotent F, its partition, and
    starts with ``extras``. ``body(rep, G)`` records G's instances on
    ``rep``. A budget or cap hit on G is a skip, and any other engine error
    a replayable ``internal-error`` failure. What the body recorded before
    either stays, and the sweep goes on with the next group.
    """
    rep = VerificationReport(claim, F.name, F.sigma.key if F.sigma else None,
                             catalog.description, extras=extras)
    t0 = time.monotonic()
    for G in catalog:
        try:
            body(rep, G)
        except (LatticeBudgetExceeded, SearchBudgetExceeded) as e:
            _skip(rep, G, "budget-exceeded", str(e))
        except OrderCapExceeded as e:
            _skip(rep, G, "order-cap-exceeded", str(e))
        except GroupError as e:
            _fail(rep, G, reason="internal-error", detail=f"{type(e).__name__}: {e}")
    rep.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return rep


def _escape(D: Subgroup) -> dict | None:
    """None when C_G(D) <= D in D's group G (the residual D is large), else
    the members of D and of the centralizer that escapes it."""
    C = centralizer(D)
    if C <= D:
        return None
    return {"residual": _members(D), "centralizer": _members(C)}


# -- Theorem B ---------------------------------------------------------------


def verify_theorem_b(catalog: Catalog, F: Formation) -> VerificationReport:
    """Groups without nontrivial hypercentral normals have a large residual."""
    if not F.saturated:
        raise ValueError("theorem-b requires a saturated formation")

    def body(rep, G):
        rep.checked += 1
        Z = hypercentre(G, F)
        if Z.order != 1:
            _skip(rep, G, "hypothesis-failed", f"hypercentre has order {Z.order}")
            return
        rep.asserted += 1
        escape = _escape(residual(G, F))
        if escape:
            _fail(rep, G, **escape,
                  detail="centralizer of the residual escapes the residual")

    return _sweep(catalog, "theorem-b", F, body)


# -- Theorem A family --------------------------------------------------------


def _theorem_a_sweep(
    catalog: Catalog,
    claim: str,
    F: Formation,
    decide: Callable,
    steps: Formation | SigmaPartition,
    lattice_budget: int,
) -> VerificationReport:
    """Shared engine for the main theorem and its section-3 specialisations.

    Instances are the (G, S) pairs with S chain-connected to G, where the
    chain decider ``decide(S, steps, lattice_budget)`` finds a chain, its
    steps drawn from a formation or a sigma partition ``steps``; for each,
    the hypothesis scan demands a trivial Z_F for S and every overgroup.
    """

    def body(rep, G):
        for S in all_subgroups(G, budget=lattice_budget):
            chain = decide(S, steps, lattice_budget)
            if chain is None:
                continue
            rep.checked += 1
            bad = None
            for E in overgroups(S):
                if hypercentre(E.as_group(), F).order != 1:
                    bad = E
                    break
            if bad is not None:
                _skip(
                    rep, G, "hypothesis-failed",
                    f"overgroup of order {bad.order} has nontrivial hypercentre",
                    subgroup=_members(S),
                )
                continue
            rep.asserted += 1
            D = S.lift(residual(S.as_group(), F))
            escape = _escape(D)
            if escape:
                _fail(rep, G, subgroup=_members(S), chain=list(chain.order_trail()),
                      **escape, detail="centralizer of the subgroup's residual escapes it")

    return _sweep(catalog, claim, F, body)


def verify_theorem_a(
    catalog: Catalog,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> VerificationReport:
    """Kegel-subnormal subgroups with hypercentre-free overgroup towers have
    large residuals in the whole group."""
    if not (F.hereditary and F.saturated):
        raise ValueError("theorem-a requires a hereditary saturated formation")
    return _theorem_a_sweep(catalog, "theorem-a", F, is_k_f_subnormal, F, lattice_budget)


def verify_schenkman_classic(
    catalog: Catalog, lattice_budget: int = DEFAULT_LATTICE_BUDGET
) -> VerificationReport:
    """Subnormal subgroups with trivial centralizer have large nilpotent
    residuals; also cross-checks that a trivial centralizer forces trivial
    nilpotent hypercentres (equal to the classical hypercentre) on every
    overgroup."""

    def body(rep, G):
        for S in all_subgroups(G, budget=lattice_budget):
            if is_subnormal(S) is None:
                continue
            rep.checked += 1
            if centralizer(S).order != 1:
                _skip(
                    rep, G, "hypothesis-failed",
                    "centralizer of the subgroup is nontrivial",
                    subgroup=_members(S),
                )
                continue
            rep.asserted += 1
            D = S.lift(residual(S.as_group(), NILPOTENT))
            escape = _escape(D)
            if escape:
                _fail(rep, G, subgroup=_members(S), **escape,
                      detail="nilpotent residual is not large")
            for E in overgroups(S):
                Egrp = E.as_group()
                zn = hypercentre(Egrp, NILPOTENT)
                zc = upper_central_series(Egrp)[-1]
                if zn.order != 1 or zc.order != 1 or zn != zc:
                    _fail(rep, G, subgroup=_members(S), overgroup=_members(E),
                          detail="bridging claim failed: expected "
                          "trivial nilpotent and classical hypercentres")

    return _sweep(catalog, "schenkman", NILPOTENT, body)


def verify_holomorph_bound(
    catalog: Catalog,
    F: Formation,
    aut_budget: int = DEFAULT_SEARCH_BUDGET,
) -> VerificationReport:
    """|G / Z_F(G)| is bounded by the holomorph order of the residual whenever
    the residual misses the hypercentre."""
    if not F.saturated:
        raise ValueError("holomorph-bound requires a saturated formation")

    def body(rep, G):
        rep.checked += 1
        U = residual(G, F)
        Z = hypercentre(G, F)
        if U.intersect(Z).order != 1:
            _skip(rep, G, "hypothesis-failed",
                  "residual meets the hypercentre nontrivially")
            return
        aut_n = len(automorphisms(U.as_group(), budget=aut_budget))
        rep.asserted += 1
        lhs = G.order // Z.order
        rhs = U.order * aut_n
        if lhs > rhs:
            _fail(rep, G, residual=_members(U), quotient_order=lhs,
                  holomorph_order=rhs, detail="holomorph bound violated")
        else:
            rep.extras["max_slack"] = max(rep.extras["max_slack"], rhs - lhs)
            if lhs == rhs:
                rep.extras["tight_instances"].append([G.label, lhs])

    return _sweep(catalog, "holomorph-bound", F, body, tight_instances=[], max_slack=0)


def verify_section3_corollaries(
    catalog: Catalog,
    sigma: SigmaPartition,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> list[VerificationReport]:
    """The supersoluble and sigma-nilpotent specialisations of the main
    theorem, with chain kinds as in each corollary, plus the agreement sweep
    between sigma chains and Kegel chains for the sigma-nilpotent class.
    Each hypothesis scan reads its formation's Z_F: the cyclic-chief
    hypercentre for supersoluble, the sigma-central one for sigma-nilpotent."""
    nsigma = sigma_nilpotent_formation(sigma)
    # (name, F, decider, steps), built here so that the deciders are read
    # from this module's bindings when the sweep runs
    kinds = (
        ("supersoluble-kegel-chains", SUPERSOLUBLE, is_k_f_subnormal, SUPERSOLUBLE),
        ("supersoluble-formation-chains", SUPERSOLUBLE, is_f_subnormal, SUPERSOLUBLE),
        ("sigma-chains", nsigma, is_sigma_subnormal, sigma),
        ("sigma-kegel-chains", nsigma, is_k_f_subnormal, nsigma),
    )
    reports = [
        _theorem_a_sweep(catalog, "section3-" + name, F, decide, steps, lattice_budget)
        for name, F, decide, steps in kinds
    ]

    def body(rep, G):
        for S in all_subgroups(G, budget=lattice_budget):
            rep.checked += 1
            rep.asserted += 1
            via_sigma = is_sigma_subnormal(S, sigma, lattice_budget) is not None
            via_kegel = is_k_f_subnormal(S, nsigma, lattice_budget) is not None
            if via_sigma != via_kegel:
                _fail(rep, G, subgroup=_members(S), sigma_subnormal=via_sigma,
                      kegel_subnormal=via_kegel,
                      detail="sigma-chain and Kegel-chain verdicts differ")

    reports.append(_sweep(catalog, "section3-sigma-chain-agreement", nsigma, body))
    return reports


# -- lemma suite ---------------------------------------------------------------

# Normal-subgroup pairs tried by the section-product law; four times as many
# subgroup pairs are drawn for the hypercentre-meets-subgroups law.
PAIR_SAMPLE = 8


def _central_normal_pairs(G: Group, F: Formation) -> dict[tuple[Subgroup, Subgroup], bool]:
    """Whether R/S is F-central in G, for every pair (S, R) of normal
    subgroups with S <= R: one verdict per section, S outer and R inner in
    the order of ``normal_subgroups``."""
    normals = normal_subgroups(G)
    return {(S, R): is_f_central(R, S, F) for S in normals for R in normals if S <= R}


def _relabel(G: Group, perm: np.ndarray) -> Group:
    """The isomorphic copy of G along a bijection fixing the identity."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    table = perm[G.table[np.ix_(inv, inv)]]
    return Group(table, label=f"{G.label}'", validate=False)


def _pair_permutation(n_size: int, h_size: int, rng: np.random.Generator) -> np.ndarray:
    """A bijection of pair codes induced by coordinate bijections fixing 0."""
    pn = np.concatenate(([0], 1 + rng.permutation(n_size - 1))) if n_size > 1 else np.zeros(1, dtype=np.int64)
    ph = np.concatenate(([0], 1 + rng.permutation(h_size - 1))) if h_size > 1 else np.zeros(1, dtype=np.int64)
    return (pn[:, None] * h_size + ph[None, :]).ravel()


@dataclass
class _LawContext:
    """What every lemma law reads about one catalog group."""

    G: Group
    F: Formation
    rng: np.random.Generator  # one stream for the whole suite
    subgroups: tuple[Subgroup, ...]  # all_subgroups(G)
    normals: tuple[Subgroup, ...]  # normal_subgroups(G)
    factors: tuple[tuple[Subgroup, Subgroup], ...]  # chief factors (top, bottom) of G
    in_f: bool
    Z: Subgroup  # Z_F(G)
    central: dict[tuple[Subgroup, Subgroup], bool]  # _central_normal_pairs(G, F)
    supplements: dict[Subgroup, list[Subgroup]]  # _supplements(G, subgroups, normals)

    @property
    def central_pairs(self) -> list[tuple[Subgroup, Subgroup]]:
        """The pairs (S, R) with R/S F-central, in the order of ``central``."""
        return [pair for pair, ok in self.central.items() if ok]


# Each law yields one item per instance it checks: None where the law holds,
# else the detail of its failure record.


def _residual_quotient(c: _LawContext):
    """Every quotient of G/G^F is in F."""
    Q, _ = quotient(residual(c.G, c.F))
    for N in normal_subgroups(Q):
        ok = c.F.contains(quotient(N)[0])
        yield None if ok else {"normal": _members(N)}


def _saturation(c: _LawContext):
    """G is in F once its residual lies in the Frattini subgroup (the lattice
    walk has already enumerated the lattice Frattini needs)."""
    D = residual(c.G, c.F)
    ok = c.in_f or not D <= frattini(c.G, budget=None)
    yield None if ok else {"residual": _members(D)}


def _hereditary(c: _LawContext):
    """Every subgroup of a member group is a member."""
    if c.in_f and c.F.hereditary:
        for S in c.subgroups:
            ok = c.F.contains(S.as_group())
            yield None if ok else {"subgroup": _members(S)}


def _chief_factors_central_in_members(c: _LawContext):
    """Every chief factor of a member group is F-central."""
    if c.in_f:
        for top, bottom in c.factors:
            ok = c.central[bottom, top]
            yield None if ok else {"factor": [top.order, bottom.order]}


def _membership_by_central_factors(c: _LawContext):
    """G is in F exactly when all its chief factors are F-central."""
    all_central = all(c.central[bottom, top] for top, bottom in c.factors)
    yield None if all_central == c.in_f else {"member": c.in_f}


def _hypercentral_normal_with_member_quotient(c: _LawContext):
    """An F-hypercentral normal N with G/N in F forces G into F."""
    for N in c.normals:
        if is_f_hypercentral(N, c.F) and c.F.contains(quotient(N)[0]):
            yield None if c.in_f else {"normal": _members(N)}


def _sigma_centrality_coherence(c: _LawContext):
    """A chief factor is sigma-central exactly when it is central for the
    sigma-nilpotent class."""
    if c.F.sigma is not None:
        for top, bottom in c.factors:
            ok = is_sigma_central(top, bottom, c.F.sigma) == c.central[bottom, top]
            yield None if ok else {"factor": [top.order, bottom.order]}


def _central_sections_restrict_to_subgroups(c: _LawContext):
    """An F-central section R/S stays F-central when cut down to a subgroup.

    Each lattice subgroup E is met once with every normal subgroup that ends
    a central pair, and each distinct section (E meet R)/(E meet S) of E is
    decided once; the items follow in (pair, E) order.
    """
    if not c.F.hereditary:
        return
    pairs, subs = c.central_pairs, c.subgroups
    # meets[N][i] is subs[i] meet N, for each N that ends a central pair
    ends = dict.fromkeys(N for pair in pairs for N in pair)
    meets = {N: [E.intersect(N) for E in subs] for N in ends}
    verdicts: dict[tuple[Subgroup, Subgroup, Subgroup], bool] = {}
    for S, R in pairs:
        for key in zip(subs, meets[R], meets[S]):
            ok = verdicts.get(key)
            if ok is None:
                E, er, es = key
                ok = verdicts[key] = is_f_central(E.localize(er), E.localize(es), c.F)
            yield None if ok else {"section": [R.order, S.order], "subgroup": _members(key[0])}


def _central_sections_refine(c: _LawContext):
    """A normal T between S and R splits an F-central R/S into F-central
    parts; both parts are read from the verdicts of ``c.central``."""
    for S, R in c.central_pairs:
        for T in c.normals:
            if S <= T <= R:
                ok = c.central[S, T] and c.central[T, R]
                yield None if ok else {"section": [R.order, S.order], "middle": T.order}


def _section_product_isomorphism(c: _LawContext):
    """The section products of MN/N and M/(M meet N) are isomorphic."""
    pairs = ((M, N) for M in c.normals for N in c.normals if M != N)
    for M, N in itertools.islice(pairs, PAIR_SAMPLE):
        lhs = section_product(join(M, N), N)
        rhs = section_product(M, M.intersect(N))
        ok = is_isomorphic(lhs, rhs) is not None
        yield None if ok else {"pair": [M.order, N.order]}


def _hypercentre_of_quotient(c: _LawContext):
    """Z_F(G/N) = Z_F(G)/N for every normal N inside Z_F(G)."""
    for N in c.normals:
        if N <= c.Z:
            Qn, proj = quotient(N)
            image = Subgroup(Qn, proj[c.Z.array])
            ok = image == hypercentre(Qn, c.F)
            yield None if ok else {"normal": _members(N)}


def _hypercentre_meets_subgroups(c: _LawContext):
    """Z_F(B) meet A lies in Z_F(B meet A), on a sample of subgroup pairs."""
    subs = c.subgroups
    n = len(subs)
    # Pair k is (subs[k // n], subs[k % n]): the row-major order of all n^2 pairs.
    codes = range(n * n)
    if n * n > 4 * PAIR_SAMPLE:
        codes = sorted(int(k) for k in c.rng.choice(n * n, size=4 * PAIR_SAMPLE, replace=False))
    for A, B in ((subs[k // n], subs[k % n]) for k in codes):
        zb = B.lift(hypercentre(B.as_group(), c.F))
        meet = B.intersect(A)
        z_meet = meet.lift(hypercentre(meet.as_group(), c.F))
        ok = zb.intersect(A) <= z_meet
        yield None if ok else {"pair": [_members(A), _members(B)]}


def _supplements(
    G: Group, subgroups: tuple[Subgroup, ...], normals: tuple[Subgroup, ...]
) -> dict[Subgroup, list[Subgroup]]:
    """For each normal N, the subgroups U with NU = G in lattice order; both
    supplement laws read them."""
    return {
        N: [U for U in subgroups if N.order * U.order // N.intersect(U).order == G.order]
        for N in normals
    }


def _minimal_supplement_membership(c: _LawContext):
    """A minimal supplement of a normal N with G/N in F is in F.

    The supplements come in lattice order, smaller ones first, so a
    supplement below U contains a minimal one that came before U: U is
    minimal when none of the minimal ones found so far lies in it.
    """
    for N in c.normals:
        if c.F.contains(quotient(N)[0]):
            minimal: list[Subgroup] = []
            for U in c.supplements[N]:
                if not any(V <= U for V in minimal):
                    minimal.append(U)
                    ok = c.F.contains(U.as_group())
                    yield None if ok else {
                        "normal": _members(N), "supplement": _members(U)
                    }


def _member_supplement_central_core(c: _LawContext):
    """For a supplement U in F of a normal N, U meet C_G(N) is normal in G
    and lies in Z_F(G)."""
    for N in c.normals:
        C = centralizer(N)
        for U in c.supplements[N]:
            if c.F.contains(U.as_group()):
                Zu = U.intersect(C)
                ok = Zu.is_normal() and Zu <= c.Z
                yield None if ok else {
                    "normal": _members(N), "supplement": _members(U)
                }


def _equivalent_pairs_isomorphic(c: _LawContext):
    """Transporting both coordinates of a semidirect product through
    bijections gives the product built from the equivalent pair, so the two
    are isomorphic."""
    if c.G.order > 1:
        minimal_normal = minimal_normal_subgroups(c.G)[0]
        P1 = section_product(minimal_normal, c.G.trivial_subgroup())
        sec_order = minimal_normal.order
        twisted = _relabel(P1, _pair_permutation(sec_order, P1.order // sec_order, c.rng))
        yield None if is_isomorphic(P1, twisted) is not None else {}


# The lemma laws in the order the suite checks them on each group; a
# failure record's "law" field is its law's name here.
LAWS: dict[str, Callable[[_LawContext], Iterator[dict | None]]] = {
    "residual-quotient": _residual_quotient,
    "saturation": _saturation,
    "hereditary": _hereditary,
    "chief-factors-central-in-members": _chief_factors_central_in_members,
    "membership-by-central-factors": _membership_by_central_factors,
    "hypercentral-normal-with-member-quotient": _hypercentral_normal_with_member_quotient,
    "sigma-centrality-coherence": _sigma_centrality_coherence,
    "central-sections-restrict-to-subgroups": _central_sections_restrict_to_subgroups,
    "central-sections-refine": _central_sections_refine,
    "section-product-isomorphism": _section_product_isomorphism,
    "hypercentre-of-quotient": _hypercentre_of_quotient,
    "hypercentre-meets-subgroups": _hypercentre_meets_subgroups,
    "minimal-supplement-membership": _minimal_supplement_membership,
    "member-supplement-central-core": _member_supplement_central_core,
    "equivalent-pairs-isomorphic": _equivalent_pairs_isomorphic,
}


def verify_lemma_suite(
    catalog: Catalog,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> VerificationReport:
    """Property sweep of the supporting lemmas over the catalog.

    Runs every law of ``LAWS``, in order, on each group whose subgroup
    lattice fits ``lattice_budget``. A group's items count only once all of
    its laws have run, so a group that ``_sweep`` records as a skip (its
    section products exceed the cap) or an ``internal-error`` failure adds
    none of them. The sigma-centrality law applies only when F is a
    sigma-nilpotent class.
    """
    rng = np.random.default_rng(20240601)

    def body(rep, G):
        subgroups = all_subgroups(G, budget=lattice_budget)
        normals = normal_subgroups(G)
        terms = chief_series(G)
        ctx = _LawContext(
            G, F, rng, subgroups, normals,
            factors=tuple(zip(terms[1:], terms)),
            in_f=F.contains(G),
            Z=hypercentre(G, F),
            central=_central_normal_pairs(G, F),
            supplements=_supplements(G, subgroups, normals),
        )
        items, failed = 0, []
        for name, law in LAWS.items():
            for detail in law(ctx):
                items += 1
                if detail is not None:
                    failed.append({"law": name, **detail})
        rep.checked += items
        rep.asserted += items
        for detail in failed:
            _fail(rep, G, **detail)

    return _sweep(catalog, "lemmas", F, body)


# -- orchestration -------------------------------------------------------------


def _theorem_b(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_theorem_b(catalog, F) for F in formations if F.saturated]


def _theorem_a(catalog, formations, sigma, lattice_budget, aut_budget):
    return [
        verify_theorem_a(catalog, F, lattice_budget)
        for F in formations
        if F.hereditary and F.saturated
    ]


def _schenkman(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_schenkman_classic(catalog, lattice_budget)]


def _holomorph_bound(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_holomorph_bound(catalog, F, aut_budget) for F in formations if F.saturated]


def _section3(catalog, formations, sigma, lattice_budget, aut_budget):
    return verify_section3_corollaries(
        catalog, sigma if sigma is not None else SigmaPartition(),
        lattice_budget,
    )


def _lemmas(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_lemma_suite(catalog, F, lattice_budget) for F in formations]


# Every claim's sweeps, called as (catalog, formations, sigma, lattice_budget,
# aut_budget), in the order run_all runs them. Each sweeps only the formations
# its theorem accepts, where a direct verify_* call raises ValueError.
CLAIMS: dict[str, Callable[..., list[VerificationReport]]] = {
    "theorem-b": _theorem_b,
    "theorem-a": _theorem_a,
    "schenkman": _schenkman,
    "holomorph-bound": _holomorph_bound,
    "section3": _section3,
    "lemmas": _lemmas,
}


def run_all(
    catalog: Catalog,
    formations: list[Formation],
    sigma: SigmaPartition | None = None,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
    aut_budget: int = DEFAULT_SEARCH_BUDGET,
) -> list[VerificationReport]:
    """Every claim for every requested formation, in a fixed order."""
    return [
        report
        for sweeps in CLAIMS.values()
        for report in sweeps(catalog, formations, sigma, lattice_budget, aut_budget)
    ]
