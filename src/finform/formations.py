"""Formation membership, residuals, central sections, and hypercentres.

A formation here is a named membership predicate over groups plus
hereditary/saturated metadata. The built-ins are the nilpotent,
supersoluble, and soluble classes and the sigma-nilpotent class for a
chosen prime partition; all four are hereditary saturated formations, and
the verification sweeps exercise those laws rather than assuming them.
Membership builds no chief series: solubility is read off the derived
series, supersolubility by peeling normal subgroups of prime order one
quotient at a time, and (sigma-)nilpotence off normal Hall subgroups.

A section H/K is F-central when (H/K)⋊(G/C_G(H/K)) lies in F. On a chief
factor a saturated formation decides that by its local definition (Doerk &
Hawkes, *Finite Soluble Groups*, IV.3), so the hypercentre walk builds no
section product; ``is_f_central`` keeps the product definition.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .construct import semidirect_section
from .errors import (
    FormationLawViolated,
    HypercentreNotHypercentral,
    UnknownFormation,
)
from .groups import (
    Group,
    Subgroup,
    _memo,
    centralizer_of_section,
    cyclic_subgroup,
    derived_series,
    quotient,
)
from .lattice import (
    _prime_factors,
    chief_series_through,
    is_prime,
    normal_covers,
    normal_hall_subgroup,
    normal_subgroups,
)


# -- sigma partitions -------------------------------------------------------


@dataclass(frozen=True)
class SigmaPartition:
    """A partition of the primes into classes.

    Only finitely many classes are listed; any unlisted prime forms its own
    singleton class. The empty partition therefore means "all singletons".
    """

    classes: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        seen: set[int] = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("sigma class is empty")
            for p in cls:
                if isinstance(p, bool) or not isinstance(p, int):
                    raise ValueError(f"sigma entry {p!r} is not an integer")
                if not is_prime(p):
                    raise ValueError(f"{p} is not prime")
                if p in seen:
                    raise ValueError(f"prime {p} appears in two classes")
                seen.add(p)

    @staticmethod
    def from_lists(classes: Iterable[Iterable[int]]) -> "SigmaPartition":
        try:
            return SigmaPartition(tuple(frozenset(c) for c in classes))
        except TypeError as e:  # an unhashable entry, such as a nested list
            raise ValueError(f"bad sigma entry: {e}") from e

    @staticmethod
    def parse(text: str) -> "SigmaPartition":
        """Parse the config syntax ``[[2,3],[5]]``."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"bad sigma partition {text!r}: {e}") from e
        if not isinstance(data, list) or not all(isinstance(c, list) for c in data):
            raise ValueError(f"bad sigma partition {text!r}: expected a list of lists")
        return SigmaPartition.from_lists(data)

    def one_class(self, n: int) -> bool:
        """Whether all primes of n lie in a single class: a group of order n
        is then sigma-primary."""
        return len({self.prime_class(p) for p in _prime_factors(n)}) <= 1

    def prime_class(self, p: int) -> frozenset[int]:
        """The class containing prime p: a listed one, else {p}."""
        return next((cls for cls in self.classes if p in cls), frozenset({p}))

    @property
    def key(self) -> str:
        """Canonical text form, used in formation names and reports."""
        parts = sorted(sorted(cls) for cls in self.classes)
        return json.dumps(parts, separators=(",", ":"))


# -- membership predicates --------------------------------------------------


def is_nilpotent(G: Group) -> bool:
    """Every Sylow subgroup is normal: the singleton case of sigma-nilpotence."""
    return is_sigma_nilpotent(G, SigmaPartition())


def is_soluble(G: Group) -> bool:
    """The derived series reaches 1. Exact: G^(i) lies in the i-th term of
    every subnormal series with abelian factors, so it reaches 1 if one does."""
    return derived_series(G)[-1].order == 1


def is_supersoluble(G: Group) -> bool:
    """Peel normal subgroups N of prime order, G := G/N, until G = 1.

    N = <x> for a class representative x of prime order p whose class has
    fewer than p elements and lies in <x>, as every normal N of order p is.
    Exact: a nontrivial supersoluble group has such an N (its minimal normal
    subgroups) and supersoluble quotients; conversely N with G/N supersoluble
    gives a chief series with prime factors, so by Jordan-Hölder all have them.
    """
    while G.order > 1:
        for cls in G.conjugacy_classes()[1:]:
            p = int(G.element_orders[cls[0]])
            if len(cls) < p and is_prime(p):
                N = cyclic_subgroup(G, int(cls[0]))
                if all(y in N for y in cls):
                    break
        else:
            return False
        G = quotient(N)[0]
    return True


def is_sigma_nilpotent(G: Group, sigma: SigmaPartition) -> bool:
    """A normal Hall subgroup exists for every class meeting the group's primes.

    The internal product of those Hall subgroups is then automatically
    direct and equal to the group.
    """
    classes = {sigma.prime_class(p) for p in _prime_factors(G.order)}
    return all(normal_hall_subgroup(G, cls) is not None for cls in classes)


# -- formations --------------------------------------------------------------


ChiefRule = Callable[[Subgroup, Subgroup], bool]


@dataclass(frozen=True, eq=False)
class Formation:
    """A named group-class predicate with hereditary/saturated metadata.

    ``chief_rule(H, K)`` decides from the local definition whether a chief
    factor H/K of their group is F-central. A formation has one exactly when it is
    saturated (Gaschütz–Lubeseder–Schmid); without it the section product
    decides. The flags are trusted when selecting which theorems apply, but
    the verifier's law sweeps exercise them on the whole catalog. ``sigma``
    is the partition of a sigma-nilpotent class, and None for any other. A
    formation equals only itself, and its memos are keyed by the object.
    """

    name: str
    predicate: Callable[[Group], bool]
    hereditary: bool = True
    chief_rule: ChiefRule | None = None
    sigma: SigmaPartition | None = None

    @property
    def saturated(self) -> bool:
        return self.chief_rule is not None

    def contains(self, G: Group) -> bool:
        return _memo(G, ("in-formation", self), lambda: bool(self.predicate(G)))

    def chief_central(self, H: Subgroup, K: Subgroup) -> bool:
        """Whether the chief factor H/K of their group is F-central."""
        if self.chief_rule is None:
            return is_f_central(H, K, self)
        return self.chief_rule(H, K)

    def __repr__(self) -> str:
        return f"Formation({self.name})"


# Local rules for a chief factor H/K, with m = |H/K| and Q = G/C_G(H/K).


def _sigma_rule(sigma: SigmaPartition) -> ChiefRule:
    """All primes of m·|Q| lie in one class; this covers nonabelian factors."""
    return lambda H, K: is_sigma_central(H, K, sigma)


def _soluble_rule(H: Subgroup, K: Subgroup) -> bool:
    """m is a prime power and Q is soluble: |Q| has at most two primes
    (Burnside's p^a q^b theorem), or else G's last derived term lies in C,
    as (G/C)^(i) = G^(i)C/C."""
    if len(_prime_factors(H.order // K.order)) != 1:
        return False
    G, C = H.parent, centralizer_of_section(H, K)
    return len(_prime_factors(G.order // C.order)) <= 2 or derived_series(G)[-1] <= C


NILPOTENT = Formation("nilpotent", is_nilpotent,
                      chief_rule=_sigma_rule(SigmaPartition()))
SUPERSOLUBLE = Formation("supersoluble", is_supersoluble,
                         chief_rule=lambda H, K: is_prime(H.order // K.order))
SOLUBLE = Formation("soluble", is_soluble, chief_rule=_soluble_rule)


_SIGMA_FORMATIONS: dict[str, Formation] = {}


def sigma_nilpotent_formation(sigma: SigmaPartition) -> Formation:
    """The sigma-nilpotent formation, one object per ``sigma.key``, so the
    sweeps of a run share its memos."""
    return _SIGMA_FORMATIONS.setdefault(sigma.key, Formation(
        f"sigma-nilpotent{sigma.key}", lambda G: is_sigma_nilpotent(G, sigma),
        chief_rule=_sigma_rule(sigma), sigma=sigma))


def builtin_formations(sigma: SigmaPartition | None = None) -> list[Formation]:
    out = [NILPOTENT, SUPERSOLUBLE, SOLUBLE]
    if sigma is not None:
        out.append(sigma_nilpotent_formation(sigma))
    return out


def formation_by_selector(selector: str, sigma: SigmaPartition | None = None) -> Formation:
    """Resolve a CLI selector string to a formation: a built-in by name."""
    sel = selector.strip().lower()
    by_name = {F.name: F for F in builtin_formations()}
    if sel in by_name:
        return by_name[sel]
    if sel == "sigma-nilpotent":
        if sigma is None:
            raise UnknownFormation("sigma-nilpotent requires a sigma partition")
        return sigma_nilpotent_formation(sigma)
    raise UnknownFormation(
        f"unknown formation {selector!r}; choose {', '.join(by_name)}, or sigma-nilpotent")


# -- residuals ----------------------------------------------------------------


def residual(G: Group, F: Formation) -> Subgroup:
    """Smallest normal subgroup with quotient in F.

    Computed as the intersection of every normal subgroup whose quotient
    lies in F; the result's own quotient is then re-checked, so a broken
    membership predicate surfaces as FormationLawViolated instead of a
    silently wrong residual.
    """
    def compute():
        out = G.full_subgroup()
        for N in normal_subgroups(G):
            if F.contains(quotient(N)[0]):
                out = out.intersect(N)
        if not F.contains(quotient(out)[0]):
            raise FormationLawViolated(
                f"{F.name}: quotient by the candidate residual is not in the class"
            )
        return out

    return _memo(G, ("residual", F), compute)


# -- central sections ----------------------------------------------------------


def section_product(H: Subgroup, K: Subgroup) -> Group:
    """The section product [H/K](G/C_G(H/K)), memoised on H's group G.

    This single product decides centrality: testing at the full centralizer
    is equivalent to the existential definition over admissible kernels.
    """
    return _memo(H.parent, ("section_product", H, K), lambda: semidirect_section(H, K))


def is_f_central(H: Subgroup, K: Subgroup, F: Formation) -> bool:
    """Whether the normal section H/K is F-central in their group."""
    return F.contains(section_product(H, K))


def is_sigma_central(H: Subgroup, K: Subgroup, sigma: SigmaPartition) -> bool:
    """Whether the normal section H/K is sigma-central: the section product
    [H/K](G/C_G(H/K)) is sigma-primary, read off its order
    |H/K|·|G : C_G(H/K)| without building it."""
    return sigma.one_class(
        H.order // K.order * (H.parent.order // centralizer_of_section(H, K).order))


# -- hypercentres ----------------------------------------------------------------


def is_f_hypercentral(N: Subgroup, F: Formation) -> bool:
    """Whether the normal subgroup N is F-hypercentral in its group G: N = 1,
    or every chief factor of G below N is F-central.

    Reads the (top, bottom) factors ``zip(terms[1:], terms)`` of the
    memoised chief series through N that lie below N; that series runs on
    to G and is shared by every formation. ``chief_series_through`` raises
    NotNormal when N is not normal in G.
    """
    if N.order == 1:
        return True
    terms = chief_series_through(N)
    return all(F.chief_central(top, bottom)
               for top, bottom in zip(terms[1:], terms) if top <= N)


def hypercentre_is_trivial(G: Group, F: Formation) -> bool:
    """Whether Z_F(G) = 1, memoised on G: no minimal normal subgroup N of G
    has N/1 F-central (True for the trivial group).

    This is the first step of the ``hypercentre`` walk, which climbs past 1
    exactly when some normal cover of 1 is an F-central chief factor; it
    builds no chief series and runs no self-check.
    """
    def compute():
        one = G.trivial_subgroup()
        return not any(F.chief_central(N, one) for N in normal_covers(one))

    return _memo(G, ("hypercentre-trivial", F), compute)


def hypercentre(G: Group, F: Formation) -> Subgroup:
    """Z_F(G), the largest normal subgroup that is F-hypercentral.

    Climbs from 1 by F-central chief factors M/Z, M a normal cover of Z, until
    no cover of Z passes. The result is re-verified by
    ``is_f_hypercentral``, on the factors of a chief series through Z; a
    failure would falsify the hypercentre law and is raised rather than
    papered over.
    """
    def compute():
        Z = G.trivial_subgroup()
        while (M := next((C for C in normal_covers(Z) if F.chief_central(C, Z)),
                         None)) is not None:
            Z = M
        if not is_f_hypercentral(Z, F):
            raise HypercentreNotHypercentral(
                f"ascending hypercentre fails its own chief-factor test in {G.label}"
            )
        return Z

    return _memo(G, ("hypercentre", F), compute)
