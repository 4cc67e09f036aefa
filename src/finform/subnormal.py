"""Chain-existence deciders for subnormality notions, with witness chains.

Four kinds of chain are supported between a subgroup A and its group G:
plain subnormal (normal steps only), Kegel-style chains for a formation
(each step normal or with core-quotient in the formation), formation-only
chains (core-quotient steps only), and sigma chains (normal steps or
sigma-primary core-quotients).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .formations import Formation, SigmaPartition, is_sigma_primary
from .groups import Group, Subgroup, _memo, core, normal_closure_in, quotient
from .lattice import DEFAULT_LATTICE_BUDGET, all_subgroups, overgroups

NORMAL_STEP = "normal-step"
F_STEP = "f-step"


@dataclass(frozen=True)
class WitnessChain:
    """An ascending chain from a subgroup to its group, one tag per step."""

    terms: tuple[Subgroup, ...]
    step_kinds: tuple[str, ...]

    def __post_init__(self):
        if len(self.step_kinds) != len(self.terms) - 1:
            raise ValueError("need exactly one step kind per consecutive pair")

    def __len__(self) -> int:
        return len(self.step_kinds)

    def order_trail(self) -> tuple[int, ...]:
        return tuple(t.order for t in self.terms)

    def describe(self) -> str:
        if not self.step_kinds:
            return str(self.terms[0].order)
        bits = [str(self.terms[0].order)]
        for kind, term in zip(self.step_kinds, self.terms[1:]):
            bits.append(f"--{kind}--> {term.order}")
        return " ".join(bits)

    def validate(self, f_quotient_ok: Callable[[Group], bool] | None = None) -> bool:
        """Re-check every step against its tag.

        ``f_quotient_ok`` decides membership of a core-quotient for f-steps;
        it must be supplied when any step is tagged as one.
        """
        for i, kind in enumerate(self.step_kinds):
            low, high = self.terms[i], self.terms[i + 1]
            if not low < high:
                return False
            if kind == NORMAL_STEP:
                if core(high, low) is not low:
                    return False
            elif kind == F_STEP:
                if f_quotient_ok is None:
                    raise ValueError("validating an f-step needs a quotient test")
                if not f_quotient_ok(_core_quotient(low, high)):
                    return False
            else:
                return False
        return True


def _core_quotient(low: Subgroup, high: Subgroup) -> Group:
    """The group high / core(high, low)."""
    def compute():
        return quotient(high.localize(core(high, low)))[0]

    return _memo(low.parent, ("core_quotient", low, high), compute)


def is_subnormal(A: Subgroup) -> WitnessChain | None:
    """Witness chain of normal steps, by iterated normal-closure descent.

    A is subnormal in its group G iff the sequence H_0 = G, H_{k+1} =
    <A^{H_k}> stabilises at A; the descent itself is the chain, read upward.
    """
    chain = [A.parent.full_subgroup()]
    while True:
        current = chain[-1]
        if current == A:
            break
        nxt = normal_closure_in(current, A)
        if nxt == current:
            return None
        chain.append(nxt)
    chain.reverse()
    return WitnessChain(tuple(chain), (NORMAL_STEP,) * (len(chain) - 1))


def _chain_search(
    A: Subgroup,
    quotient_ok: Callable[[Group], bool],
    normal_steps: bool,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Breadth-first shortest witness chain, from each term to its overgroups.

    A step X < Y is normal when ``normal_steps`` allows it and X is its own
    core in Y, else an f-step when ``quotient_ok`` accepts Y / core_Y(X), else
    no step. Both halves read the one core memoised per pair, and the core
    quotient is memoised per pair too, so every chain kind shares them. Ties
    are broken in lattice order, so witnesses are reproducible.
    """
    all_subgroups(A.parent, budget=lattice_budget)  # the lattice overgroups reads
    top = A.parent.full_subgroup()
    chains = {A: ((A,), ())}  # the first (terms, step kinds) found to each subgroup reached
    queue = [A]
    while queue:
        nxt_queue = []
        for X in queue:
            for Y in overgroups(X):  # X first, G last
                if Y in chains:  # X itself is in chains
                    continue
                if normal_steps and core(Y, X) is X:
                    kind = NORMAL_STEP
                elif quotient_ok(_core_quotient(X, Y)):
                    kind = F_STEP
                else:
                    continue
                terms, kinds = chains[X]
                chains[Y] = (terms + (Y,), kinds + (kind,))
                if Y is top:
                    return WitnessChain(*chains[Y])
                nxt_queue.append(Y)
        queue = nxt_queue
    return WitnessChain(*chains[A]) if A is top else None


def is_k_f_subnormal(
    A: Subgroup,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Kegel chain: each step normal or with core-quotient in F."""
    return _chain_search(A, F.contains, True, lattice_budget)


def is_f_subnormal(
    A: Subgroup,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Chain of core-quotient steps only."""
    return _chain_search(A, F.contains, False, lattice_budget)


def is_sigma_subnormal(
    A: Subgroup,
    sigma: SigmaPartition,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Chain of normal steps or sigma-primary core-quotient steps."""
    return _chain_search(A, lambda Q: is_sigma_primary(Q, sigma), True, lattice_budget)
