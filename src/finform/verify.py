"""Catalog generation and exhaustive desk-scale verification sweeps.

Each sweep walks the catalog, decides per instance whether the claim's
hypothesis applies, asserts the conclusion where it does, and reports
everything: instances checked, instances where the hypothesis held,
skipped instances with machine-checkable reasons, and fully reproducible
counterexample records (including Cayley data) on any conclusion failure.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import construct
from .errors import LatticeBudgetExceeded, SearchBudgetExceeded
from .files import load_group_file
from .formations import (
    Formation,
    NILPOTENT,
    SUPERSOLUBLE,
    SigmaPartition,
    f_hypercentre,
    is_f_central,
    is_f_hypercentral,
    is_sigma_central,
    residual,
    section_product,
    sigma_hypercentre,
    sigma_nilpotent_formation,
    supersoluble_hypercentre,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    Group,
    Subgroup,
    centralizer,
    generated_subgroup,
    hypercentre_classical,
    quotient,
)
from .lattice import (
    DEFAULT_LATTICE_BUDGET,
    all_subgroups,
    chief_series,
    frattini,
    is_prime,
    normal_subgroups,
)
from .morphisms import automorphism_count, is_isomorphic, fingerprint
from .subnormal import (
    is_f_subnormal,
    is_k_f_subnormal,
    is_sigma_subnormal,
    is_subnormal,
)

DEFAULT_AUT_BUDGET = 10_000_000


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


def _family_seeds(max_order: int, order_cap: int | None) -> list[Group]:
    seeds: list[Group] = []
    for n in range(1, max_order + 1):
        seeds.append(construct.cyclic(n, order_cap=order_cap))
    for n in (3, 4):
        if math.factorial(n) <= max_order:
            seeds.append(construct.symmetric(n, order_cap=order_cap))
    for n in (4, 5):
        if math.factorial(n) // 2 <= max_order:
            seeds.append(construct.alternating(n, order_cap=order_cap))
    for half in range(3, max_order // 2 + 1):
        seeds.append(construct.dihedral(half, order_cap=order_cap))
    q = 8
    while q <= max_order:
        seeds.append(construct.quaternion(q, order_cap=order_cap))
        q *= 2
    p = 2
    while p * p <= max_order:
        if is_prime(p):
            k = 2
            while p**k <= max_order:
                seeds.append(construct.elem_abelian(p, k, order_cap=order_cap))
                k += 1
        p += 1
    return seeds


def _dedupe(groups: list[Group]) -> list[Group]:
    """Keep the first representative of each isomorphism type."""
    kept: list[Group] = []
    buckets: dict[tuple, list[Group]] = {}
    for g in groups:
        fp = fingerprint(g)
        bucket = buckets.setdefault(fp, [])
        if any(is_isomorphic(g, rep) is not None for rep in bucket):
            continue
        bucket.append(g)
        kept.append(g)
    return kept


def catalog_generate(
    max_order: int,
    files: tuple[str, ...] = (),
    order_cap: int | None = DEFAULT_ORDER_CAP,
) -> Catalog:
    """Deterministic catalog: named families, their pairwise direct products
    within the bound, and any user-supplied group files; deduplicated up to
    isomorphism (first construction wins)."""
    if order_cap is not None and max_order > order_cap:
        from .errors import OrderCapExceeded

        raise OrderCapExceeded(f"max_order {max_order} exceeds order cap {order_cap}")
    base = _dedupe(_family_seeds(max_order, order_cap))
    everything = list(base)
    for i, a in enumerate(base):
        if a.order < 2:
            continue
        for b in base[i:]:
            if b.order < 2 or a.order * b.order > max_order:
                continue
            everything.append(construct.direct_product(a, b, order_cap=order_cap))
    for path in files:
        g = load_group_file(path, order_cap=order_cap)
        if g.order <= max_order:
            everything.append(g)
    groups = _dedupe(everything)
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
        return any(s.get("reason") == "budget-exceeded" for s in self.skipped)

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


def _failure_record(G: Group, detail: dict, include_cayley: bool = True) -> dict:
    rec = {"group": G.label, "order": G.order}
    rec.update(detail)
    if include_cayley:
        rec["cayley"] = G.table.tolist()
    return rec


def _members(S: Subgroup) -> list[int]:
    return list(S.members_tuple)


class _Timer:
    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.ms = int((time.monotonic() - self.t0) * 1000)
        return False


# -- Theorem B ---------------------------------------------------------------


def verify_theorem_b(catalog: Catalog, F: Formation) -> VerificationReport:
    """Groups without nontrivial hypercentral normals have a large residual."""
    if not F.saturated:
        raise ValueError("theorem-b requires a saturated formation")
    rep = VerificationReport("theorem-b", F.name, None, catalog.description)
    with _Timer() as t:
        for G in catalog:
            rep.checked += 1
            Z = f_hypercentre(G, F)
            if Z.order != 1:
                rep.skipped.append(
                    {
                        "group": G.label,
                        "reason": "hypothesis-failed",
                        "detail": f"hypercentre has order {Z.order}",
                    }
                )
                continue
            rep.asserted += 1
            D = residual(G, F)
            C = centralizer(G, D)
            if not (C.members <= D.members):
                rep.failures.append(
                    _failure_record(
                        G,
                        {
                            "residual": _members(D),
                            "centralizer": _members(C),
                            "detail": "centralizer of the residual escapes the residual",
                        },
                    )
                )
    rep.elapsed_ms = t.ms
    return rep


# -- Theorem A family --------------------------------------------------------


def _zf_trivial(E: Subgroup, hyper_fn) -> bool:
    grp = E.as_group()
    return hyper_fn(grp).order == 1


def _theorem_a_sweep(
    catalog: Catalog,
    formation: Formation,
    chain_fn,
    hyper_fn,
    claim: str,
    sigma_key: str | None = None,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> VerificationReport:
    """Shared engine for the main theorem and its section-3 specialisations.

    Instances are the (G, S) pairs with S chain-connected to G; for each, the
    hypothesis scan demands a trivial hypercentre for S and every overgroup.
    """
    rep = VerificationReport(claim, formation.name, sigma_key, catalog.description)
    with _Timer() as t:
        for G in catalog:
            try:
                lat = all_subgroups(G, budget=lattice_budget)
            except LatticeBudgetExceeded as e:
                rep.skipped.append(
                    {"group": G.label, "reason": "budget-exceeded", "detail": str(e)}
                )
                continue
            for S in lat.subgroups:
                chain = chain_fn(G, S)
                if chain is None:
                    continue
                rep.checked += 1
                bad = None
                for ei in lat.overgroups_of(S):
                    E = lat.subgroups[ei]
                    if not _zf_trivial(E, hyper_fn):
                        bad = E
                        break
                if bad is not None:
                    rep.skipped.append(
                        {
                            "group": G.label,
                            "subgroup": _members(S),
                            "reason": "hypothesis-failed",
                            "detail": f"overgroup of order {bad.order} has "
                            "nontrivial hypercentre",
                        }
                    )
                    continue
                rep.asserted += 1
                Sgrp = S.as_group()
                D = S.lift(residual(Sgrp, formation).members_tuple)
                C = centralizer(G, D)
                if not (C.members <= D.members):
                    rep.failures.append(
                        _failure_record(
                            G,
                            {
                                "subgroup": _members(S),
                                "chain": list(chain.order_trail()),
                                "residual": _members(D),
                                "centralizer": _members(C),
                                "detail": "centralizer of the subgroup's residual "
                                "escapes it",
                            },
                        )
                    )
    rep.elapsed_ms = t.ms
    return rep


def verify_theorem_a(
    catalog: Catalog,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> VerificationReport:
    """Kegel-subnormal subgroups with hypercentre-free overgroup towers have
    large residuals in the whole group."""
    if not (F.hereditary and F.saturated):
        raise ValueError("theorem-a requires a hereditary saturated formation")
    return _theorem_a_sweep(
        catalog,
        F,
        lambda G, S: is_k_f_subnormal(G, S, F, lattice_budget),
        lambda grp: f_hypercentre(grp, F),
        claim="theorem-a",
        lattice_budget=lattice_budget,
    )


def verify_schenkman_classic(
    catalog: Catalog, lattice_budget: int = DEFAULT_LATTICE_BUDGET
) -> VerificationReport:
    """Subnormal subgroups with trivial centralizer have large nilpotent
    residuals; also cross-checks that a trivial centralizer forces trivial
    nilpotent hypercentres (equal to the classical hypercentre) on every
    overgroup."""
    rep = VerificationReport("schenkman", NILPOTENT.name, None, catalog.description)
    with _Timer() as t:
        for G in catalog:
            try:
                lat = all_subgroups(G, budget=lattice_budget)
            except LatticeBudgetExceeded as e:
                rep.skipped.append(
                    {"group": G.label, "reason": "budget-exceeded", "detail": str(e)}
                )
                continue
            for S in lat.subgroups:
                if is_subnormal(G, S) is None:
                    continue
                rep.checked += 1
                if centralizer(G, S).order != 1:
                    rep.skipped.append(
                        {
                            "group": G.label,
                            "subgroup": _members(S),
                            "reason": "hypothesis-failed",
                            "detail": "centralizer of the subgroup is nontrivial",
                        }
                    )
                    continue
                rep.asserted += 1
                Sgrp = S.as_group()
                D = S.lift(residual(Sgrp, NILPOTENT).members_tuple)
                C = centralizer(G, D)
                if not (C.members <= D.members):
                    rep.failures.append(
                        _failure_record(
                            G,
                            {
                                "subgroup": _members(S),
                                "residual": _members(D),
                                "centralizer": _members(C),
                                "detail": "nilpotent residual is not large",
                            },
                        )
                    )
                for ei in lat.overgroups_of(S):
                    E = lat.subgroups[ei]
                    Egrp = E.as_group()
                    zn = f_hypercentre(Egrp, NILPOTENT)
                    zc = hypercentre_classical(Egrp)
                    if zn.order != 1 or zc.order != 1 or zn.members != zc.members:
                        rep.failures.append(
                            _failure_record(
                                G,
                                {
                                    "subgroup": _members(S),
                                    "overgroup": _members(E),
                                    "detail": "bridging claim failed: expected "
                                    "trivial nilpotent and classical hypercentres",
                                },
                            )
                        )
    rep.elapsed_ms = t.ms
    return rep


def verify_holomorph_bound(
    catalog: Catalog,
    F: Formation,
    aut_budget: int = DEFAULT_AUT_BUDGET,
) -> VerificationReport:
    """|G / Z_F(G)| is bounded by the holomorph order of the residual whenever
    the residual misses the hypercentre."""
    if not F.saturated:
        raise ValueError("holomorph-bound requires a saturated formation")
    rep = VerificationReport("holomorph-bound", F.name, None, catalog.description)
    tight: list[list] = []
    max_slack = 0
    with _Timer() as t:
        for G in catalog:
            rep.checked += 1
            U = residual(G, F)
            Z = f_hypercentre(G, F)
            if U.members & Z.members != frozenset((0,)):
                rep.skipped.append(
                    {
                        "group": G.label,
                        "reason": "hypothesis-failed",
                        "detail": "residual meets the hypercentre nontrivially",
                    }
                )
                continue
            try:
                aut_n = automorphism_count(U.as_group(), budget=aut_budget)
            except SearchBudgetExceeded as e:
                rep.skipped.append(
                    {"group": G.label, "reason": "budget-exceeded", "detail": str(e)}
                )
                continue
            rep.asserted += 1
            lhs = G.order // Z.order
            rhs = U.order * aut_n
            if lhs > rhs:
                rep.failures.append(
                    _failure_record(
                        G,
                        {
                            "residual": _members(U),
                            "quotient_order": lhs,
                            "holomorph_order": rhs,
                            "detail": "holomorph bound violated",
                        },
                    )
                )
            else:
                max_slack = max(max_slack, rhs - lhs)
                if lhs == rhs:
                    tight.append([G.label, lhs])
    rep.extras["tight_instances"] = tight
    rep.extras["max_slack"] = max_slack
    rep.elapsed_ms = t.ms
    return rep


def verify_section3_corollaries(
    catalog: Catalog,
    sigma: SigmaPartition,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> list[VerificationReport]:
    """The supersoluble and sigma-nilpotent specialisations of the main
    theorem, with chain kinds as in each corollary, plus the agreement sweep
    between sigma chains and Kegel chains for the sigma-nilpotent class."""
    nsigma = sigma_nilpotent_formation(sigma)
    reports = [
        _theorem_a_sweep(
            catalog,
            SUPERSOLUBLE,
            lambda G, S: is_k_f_subnormal(G, S, SUPERSOLUBLE, lattice_budget),
            supersoluble_hypercentre,
            claim="section3-supersoluble-kegel-chains",
            lattice_budget=lattice_budget,
        ),
        _theorem_a_sweep(
            catalog,
            SUPERSOLUBLE,
            lambda G, S: is_f_subnormal(G, S, SUPERSOLUBLE, lattice_budget),
            supersoluble_hypercentre,
            claim="section3-supersoluble-formation-chains",
            lattice_budget=lattice_budget,
        ),
        _theorem_a_sweep(
            catalog,
            nsigma,
            lambda G, S: is_sigma_subnormal(G, S, sigma, lattice_budget),
            lambda grp: sigma_hypercentre(grp, sigma),
            claim="section3-sigma-chains",
            sigma_key=sigma.key,
            lattice_budget=lattice_budget,
        ),
        _theorem_a_sweep(
            catalog,
            nsigma,
            lambda G, S: is_k_f_subnormal(G, S, nsigma, lattice_budget),
            lambda grp: sigma_hypercentre(grp, sigma),
            claim="section3-sigma-kegel-chains",
            sigma_key=sigma.key,
            lattice_budget=lattice_budget,
        ),
    ]
    agreement = VerificationReport(
        "section3-sigma-chain-agreement", nsigma.name, sigma.key, catalog.description
    )
    with _Timer() as t:
        for G in catalog:
            try:
                lat = all_subgroups(G, budget=lattice_budget)
            except LatticeBudgetExceeded as e:
                agreement.skipped.append(
                    {"group": G.label, "reason": "budget-exceeded", "detail": str(e)}
                )
                continue
            for S in lat.subgroups:
                agreement.checked += 1
                agreement.asserted += 1
                via_sigma = is_sigma_subnormal(G, S, sigma, lattice_budget) is not None
                via_kegel = is_k_f_subnormal(G, S, nsigma, lattice_budget) is not None
                if via_sigma != via_kegel:
                    agreement.failures.append(
                        _failure_record(
                            G,
                            {
                                "subgroup": _members(S),
                                "sigma_subnormal": via_sigma,
                                "kegel_subnormal": via_kegel,
                                "detail": "sigma-chain and Kegel-chain verdicts differ",
                            },
                        )
                    )
    agreement.elapsed_ms = t.ms
    reports.append(agreement)
    return reports


# -- lemma suite ---------------------------------------------------------------


def _central_normal_pairs(G: Group, F: Formation) -> list[tuple[Subgroup, Subgroup]]:
    """Pairs (S, R) of normal subgroups, S <= R, with R/S F-central in G."""
    out = []
    normals = normal_subgroups(G)
    for S in normals:
        for R in normals:
            if S.members <= R.members and is_f_central(G, R, S, F):
                out.append((S, R))
    return out


def _relabel(G: Group, perm: np.ndarray) -> Group:
    """The isomorphic copy of G along a bijection fixing the identity."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    table = perm[G.table[np.ix_(inv, inv)]]
    return Group(table, label=f"{G.label}'", validate="none")


def verify_lemma_suite(
    catalog: Catalog,
    F: Formation,
    sigma: SigmaPartition | None = None,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
    pair_sample: int = 8,
) -> VerificationReport:
    """Property sweep of the supporting lemmas over the catalog.

    Covers: formation quotient/hereditary/saturation laws, centrality of
    chief factors in member groups, the membership equivalences, stability
    of central sections under subgroups and refinement, the section-product
    isomorphisms, hypercentre quotient/intersection laws, minimal
    supplements, and equivalent-pair isomorphism; when a sigma partition is
    supplied, chief-factor sigma-centrality is cross-checked against
    centrality for the sigma-nilpotent class.
    """
    rep = VerificationReport(
        "lemmas", F.name, sigma.key if sigma else None, catalog.description
    )
    rng = np.random.default_rng(20240601)
    with _Timer() as t:
        for G in catalog:
            in_f = F.contains(G)
            D = residual(G, F)
            Q, _ = quotient(G, D)

            def fail(detail: dict, group: Group = G):
                rep.failures.append(_failure_record(group, detail))

            # residual-quotient law: every quotient of G/G^F stays in F
            for N in normal_subgroups(Q):
                rep.checked += 1
                rep.asserted += 1
                if not F.contains(quotient(Q, N)[0]):
                    fail({"law": "residual-quotient", "normal": _members(N)})

            # saturation: membership follows once the residual is Frattini-small
            rep.checked += 1
            rep.asserted += 1
            if not in_f and D.members <= frattini(G, budget=lattice_budget).members:
                fail({"law": "saturation", "residual": _members(D)})

            # hereditary law and chief-factor centrality for member groups
            if in_f and F.hereditary:
                for S in all_subgroups(G, budget=lattice_budget).subgroups:
                    rep.checked += 1
                    rep.asserted += 1
                    if not F.contains(S.as_group()):
                        fail({"law": "hereditary", "subgroup": _members(S)})
            series = chief_series(G)
            factors = series.factors()
            if in_f:
                for sec in factors:
                    rep.checked += 1
                    rep.asserted += 1
                    if not is_f_central(G, sec.top, sec.bottom, F):
                        fail(
                            {
                                "law": "chief-factors-central-in-members",
                                "factor": [sec.top.order, sec.bottom.order],
                            }
                        )

            # membership equivalences for a saturated class: all chief
            # factors central <-> member, and a hypercentral normal with
            # member quotient forces membership
            all_central = all(
                is_f_central(G, sec.top, sec.bottom, F) for sec in factors
            )
            rep.checked += 1
            rep.asserted += 1
            if all_central != in_f:
                fail({"law": "membership-by-central-factors", "member": in_f})
            for N in normal_subgroups(G):
                if is_f_hypercentral(G, N, F) and F.contains(quotient(G, N)[0]):
                    rep.checked += 1
                    rep.asserted += 1
                    if not in_f:
                        fail(
                            {
                                "law": "hypercentral-normal-with-member-quotient",
                                "normal": _members(N),
                            }
                        )

            # sigma-centrality coherence on chief factors
            if sigma is not None:
                nsig = sigma_nilpotent_formation(sigma)
                for sec in factors:
                    rep.checked += 1
                    rep.asserted += 1
                    if is_sigma_central(G, sec.top, sec.bottom, sigma) != is_f_central(
                        G, sec.top, sec.bottom, nsig
                    ):
                        fail(
                            {
                                "law": "sigma-centrality-coherence",
                                "factor": [sec.top.order, sec.bottom.order],
                            }
                        )

            # central sections: stability under subgroups and refinement
            central_pairs = _central_normal_pairs(G, F)
            lat = all_subgroups(G, budget=lattice_budget)
            for S, R in central_pairs:
                if F.hereditary:
                    for E in lat.subgroups:
                        rep.checked += 1
                        rep.asserted += 1
                        Egrp = E.as_group()
                        er = Subgroup(
                            Egrp, E.local_members(E.intersect(R)).tolist(), validate=False
                        )
                        es = Subgroup(
                            Egrp, E.local_members(E.intersect(S)).tolist(), validate=False
                        )
                        if not is_f_central(Egrp, er, es, F):
                            fail(
                                {
                                    "law": "central-sections-restrict-to-subgroups",
                                    "section": [R.order, S.order],
                                    "subgroup": _members(E),
                                }
                            )
                for T in normal_subgroups(G):
                    if S.members <= T.members <= R.members:
                        rep.checked += 1
                        rep.asserted += 1
                        if not (
                            is_f_central(G, T, S, F) and is_f_central(G, R, T, F)
                        ):
                            fail(
                                {
                                    "law": "central-sections-refine",
                                    "section": [R.order, S.order],
                                    "middle": T.order,
                                }
                            )

            # section-product isomorphism across the two standard presentations
            normals = normal_subgroups(G)
            pairs = [
                (M, N)
                for M in normals
                for N in normals
                if M.members != N.members
            ][:pair_sample]
            for M, N in pairs:
                rep.checked += 1
                rep.asserted += 1
                MN = generated_subgroup(G, M.members | N.members)
                lhs = section_product(G, MN, N)
                rhs = section_product(G, M, M.intersect(N))
                if is_isomorphic(lhs, rhs) is None:
                    fail(
                        {
                            "law": "section-product-isomorphism",
                            "pair": [M.order, N.order],
                        }
                    )

            # hypercentre laws: quotient by a central normal, and intersections
            Z = f_hypercentre(G, F)
            for N in normals:
                if N.members <= Z.members:
                    rep.checked += 1
                    rep.asserted += 1
                    Qn, proj = quotient(G, N)
                    image = Subgroup(
                        Qn, np.unique(proj.mapping[Z.array]).tolist(), validate=False
                    )
                    if image.members != f_hypercentre(Qn, F).members:
                        fail(
                            {
                                "law": "hypercentre-of-quotient",
                                "normal": _members(N),
                            }
                        )
            subs = lat.subgroups
            idx_pairs = [
                (i, j) for i in range(len(subs)) for j in range(len(subs))
            ]
            if len(idx_pairs) > 4 * pair_sample:
                pick = rng.choice(len(idx_pairs), size=4 * pair_sample, replace=False)
                idx_pairs = [idx_pairs[int(k)] for k in sorted(pick)]
            for i, j in idx_pairs:
                A, B = subs[i], subs[j]
                rep.checked += 1
                rep.asserted += 1
                Bgrp = B.as_group()
                zb = B.lift(f_hypercentre(Bgrp, F).members_tuple)
                meet = B.intersect(A)
                meet_grp = meet.as_group()
                z_meet = meet.lift(f_hypercentre(meet_grp, F).members_tuple)
                if not ((zb.members & A.members) <= z_meet.members):
                    fail(
                        {
                            "law": "hypercentre-meets-subgroups",
                            "pair": [_members(A), _members(B)],
                        }
                    )

            # minimal supplements and central complements to normal subgroups
            for N in normals:
                if F.contains(quotient(G, N)[0]):
                    supplements = [
                        U
                        for U in subs
                        if N.order * U.order // N.intersect(U).order == G.order
                    ]
                    minimal = [
                        U
                        for U in supplements
                        if not any(V.members < U.members for V in supplements)
                    ]
                    for U in minimal:
                        rep.checked += 1
                        rep.asserted += 1
                        if not F.contains(U.as_group()):
                            fail(
                                {
                                    "law": "minimal-supplement-membership",
                                    "normal": _members(N),
                                    "supplement": _members(U),
                                }
                            )
                for U in subs:
                    if (
                        N.order * U.order // N.intersect(U).order == G.order
                        and F.contains(U.as_group())
                    ):
                        rep.checked += 1
                        rep.asserted += 1
                        Zu = U.intersect(centralizer(G, N))
                        if not (Zu.is_normal() and Zu.members <= Z.members):
                            fail(
                                {
                                    "law": "member-supplement-central-core",
                                    "normal": _members(N),
                                    "supplement": _members(U),
                                }
                            )

            # equivalent-pair isomorphism: transport both coordinates of a
            # semidirect product through bijections; the transported table is
            # the product built from the equivalent pair, so the two must be
            # isomorphic
            if G.order > 1:
                minimal_normal = min(
                    (n for n in normals if n.order > 1),
                    key=lambda s: (s.order, s.members_tuple),
                )
                P1 = section_product(G, minimal_normal, G.trivial_subgroup())
                sec_order = minimal_normal.order
                quo_order = P1.order // sec_order
                rep.checked += 1
                rep.asserted += 1
                twisted = _relabel(P1, _pair_permutation(sec_order, quo_order, rng))
                if is_isomorphic(P1, twisted) is None:
                    fail({"law": "equivalent-pairs-isomorphic"})
    rep.elapsed_ms = t.ms
    return rep


def _pair_permutation(n_size: int, h_size: int, rng: np.random.Generator) -> np.ndarray:
    """A bijection of pair codes induced by coordinate bijections fixing 0."""
    pn = np.concatenate(([0], 1 + rng.permutation(n_size - 1))) if n_size > 1 else np.zeros(1, dtype=np.int64)
    ph = np.concatenate(([0], 1 + rng.permutation(h_size - 1))) if h_size > 1 else np.zeros(1, dtype=np.int64)
    out = np.empty(n_size * h_size, dtype=np.int64)
    for n in range(n_size):
        for h in range(h_size):
            out[n * h_size + h] = pn[n] * h_size + ph[h]
    return out


# -- orchestration -------------------------------------------------------------


def _theorem_b(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_theorem_b(catalog, F) for F in formations]


def _theorem_a(catalog, formations, sigma, lattice_budget, aut_budget):
    return [
        verify_theorem_a(catalog, F, lattice_budget)
        for F in formations
        if F.hereditary and F.saturated
    ]


def _schenkman(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_schenkman_classic(catalog, lattice_budget)]


def _holomorph_bound(catalog, formations, sigma, lattice_budget, aut_budget):
    return [verify_holomorph_bound(catalog, F, aut_budget) for F in formations]


def _section3(catalog, formations, sigma, lattice_budget, aut_budget):
    return verify_section3_corollaries(
        catalog, sigma if sigma is not None else SigmaPartition.singletons(),
        lattice_budget,
    )


def _lemmas(catalog, formations, sigma, lattice_budget, aut_budget):
    return [
        verify_lemma_suite(
            catalog,
            F,
            sigma=sigma if F.name.startswith("sigma-nilpotent") else None,
            lattice_budget=lattice_budget,
        )
        for F in formations
    ]


# Every claim's sweeps, called as (catalog, formations, sigma, lattice_budget,
# aut_budget), in the order run_all runs them.
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
    aut_budget: int = DEFAULT_AUT_BUDGET,
) -> list[VerificationReport]:
    """Every claim for every requested formation, in a fixed order."""
    return [
        report
        for sweeps in CLAIMS.values()
        for report in sweeps(catalog, formations, sigma, lattice_budget, aut_budget)
    ]
