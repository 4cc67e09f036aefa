"""Exception types raised by the engine."""

from __future__ import annotations


class GroupError(Exception):
    """Base class for all engine errors."""


class _WitnessedError(GroupError):
    """An error carrying the elements that show it, so it can be replayed."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class NotAGroup(_WitnessedError):
    """A multiplication table violates a group axiom.

    ``witness`` carries the offending triple/pair/element so the failure
    can be replayed.
    """


class NotNormal(_WitnessedError):
    """A subgroup required to be normal is moved by conjugation.

    ``witness`` is a pair (g, x) with x in the subgroup and g^-1*x*g not.
    """


class OrderCapExceeded(GroupError):
    """A construction would produce a group larger than the configured cap."""


class SearchBudgetExceeded(GroupError):
    """A backtracking search exhausted its node budget."""


class LatticeBudgetExceeded(GroupError):
    """Subgroup-lattice enumeration was requested beyond its order budget."""


class FormationLawViolated(GroupError):
    """A residual quotient failed membership; the predicate is not a formation."""


class HypercentreNotHypercentral(GroupError):
    """A computed hypercentre failed its own chief-factor re-check."""


class UnknownFormation(GroupError):
    """A formation selector string was not recognized."""


class GroupFileError(GroupError):
    """A group input file could not be read or parsed.

    ``line`` is the 1-based line number of a parse error, else None.
    """

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
