"""Chain-existence deciders for subnormality notions, with witness chains.

Four kinds of chain are supported between a subgroup A and its group G:
plain subnormal (normal steps only), Kegel-style chains for a formation
(each step normal or with core-quotient in the formation), formation-only
chains (core-quotient steps only), and sigma chains (normal steps or
sigma-primary core-quotients).

The last three kinds are decided for a whole group at once: one top-down
pass over its lattice, memoised per (group, chain kind), finds every
subgroup with a chain and the next term of its shortest witness.
``chain_subnormals`` returns those subgroups; the ``is_*_subnormal``
deciders read one subgroup's witness chain off the pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formations import Formation, SigmaPartition
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


def _chain_steps(
    G: Group,
    steps: Formation | SigmaPartition,
    normal_steps: bool,
    lattice_budget: int,
) -> dict[Subgroup, tuple[Subgroup, str] | None]:
    """Each subgroup of G with a chain to G, mapped to the next term and the
    step kind of its witness (G itself to None), in one top-down pass.

    A step X < Y is normal when ``normal_steps`` allows it and X is its own
    core in Y, else an f-step when Y / core_Y(X) lies in the formation
    ``steps``, or, for a partition ``steps``, is sigma-primary, which is read
    off the index |Y : core_Y(X)| without building the quotient; else no step.
    A chain's second term gives the recursion: S has a chain iff S = G or
    some Y > S with a chain steps down to S, and descending lattice order
    decides every such Y before S. S steps to the first such Y with the
    shortest chain, in lattice order, so its witness is the shortest chain
    that a breadth-first search from S, breaking ties in lattice order,
    finds first. Memoised on G per chain kind; the budget is checked on
    every call.
    """
    subgroups = all_subgroups(G, budget=lattice_budget)
    if isinstance(steps, SigmaPartition):
        kind, f_step = steps.key, lambda S, Y: steps.one_class(Y.order // core(Y, S).order)
    else:
        kind, f_step = steps, lambda S, Y: steps.contains(quotient(Y.localize(core(Y, S)))[0])

    def compute():
        top = subgroups[-1]
        next_step, length = {top: None}, {top: 0}
        for S in reversed(subgroups[:-1]):
            # a stable sort keeps lattice order among chains of one length
            above = [Y for Y in overgroups(S)[1:] if Y in length]
            for Y in sorted(above, key=length.__getitem__):
                if normal_steps and core(Y, S) is S:
                    next_step[S] = (Y, NORMAL_STEP)
                elif f_step(S, Y):
                    next_step[S] = (Y, F_STEP)
                else:
                    continue
                length[S] = length[Y] + 1
                break
        return next_step

    return _memo(G, ("chain_steps", kind, normal_steps), compute)


def chain_subnormals(
    G: Group,
    steps: Formation | SigmaPartition,
    normal_steps: bool = True,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> frozenset[Subgroup]:
    """The subgroups of G with a chain to G: each step normal (where
    ``normal_steps`` allows it) or with core-quotient in the formation
    ``steps``, or sigma-primary for a partition ``steps``."""
    return frozenset(_chain_steps(G, steps, normal_steps, lattice_budget))


def _witness(
    A: Subgroup,
    steps: Formation | SigmaPartition,
    normal_steps: bool,
    lattice_budget: int,
) -> WitnessChain | None:
    """A's witness chain, read off the pass over its group, or None."""
    next_step = _chain_steps(A.parent, steps, normal_steps, lattice_budget)
    if A not in next_step:
        return None
    terms, kinds = [A], []
    while (step := next_step[terms[-1]]) is not None:
        terms.append(step[0])
        kinds.append(step[1])
    return WitnessChain(tuple(terms), tuple(kinds))


def is_k_f_subnormal(
    A: Subgroup,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Kegel chain: each step normal or with core-quotient in F."""
    return _witness(A, F, True, lattice_budget)


def is_f_subnormal(
    A: Subgroup,
    F: Formation,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Chain of core-quotient steps only."""
    return _witness(A, F, False, lattice_budget)


def is_sigma_subnormal(
    A: Subgroup,
    sigma: SigmaPartition,
    lattice_budget: int = DEFAULT_LATTICE_BUDGET,
) -> WitnessChain | None:
    """Chain of normal steps or sigma-primary core-quotient steps."""
    return _witness(A, sigma, True, lattice_budget)
