"""Command-line front end.

Commands:
    finform group show <selector>       structure summary of one group
    finform residual <selector> --formation F
    finform hypercentre <selector> --formation F
    finform subnormal <selector> --gens 1,2 --formation F --kind kf
    finform verify <claim> [options]

Group selectors: ``cyclic:n``, ``dihedral:n`` (order 2n), ``sym:n``,
``alt:n``, ``quaternion:8``, ``elab:p^k``, ``prod(a,b)``, ``trivial``, or
``file:<path>``. Exit codes: 0 pass, 1 conclusion failure, 2 budget
exhaustion, 3 bad configuration or input.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import construct, verify
from .errors import (
    GroupError,
    GroupFileError,
    LatticeBudgetExceeded,
    OrderCapExceeded,
    SearchBudgetExceeded,
    UnknownFormation,
)
from .files import load_group_file
from .formations import (
    SigmaPartition,
    builtin_formations,
    formation_by_selector,
    hypercentre,
    residual,
)
from .groups import DEFAULT_ORDER_CAP, Group, center, generated_subgroup
from .lattice import (
    DEFAULT_LATTICE_BUDGET,
    chief_series,
    frattini,
    normal_subgroups,
)
from .morphisms import DEFAULT_SEARCH_BUDGET
from .subnormal import (
    is_f_subnormal,
    is_k_f_subnormal,
    is_sigma_subnormal,
    is_subnormal,
)
from .verify import catalog_generate, run_all

CLAIMS = (*verify.CLAIMS, "all")


def parse_selector(text: str, order_cap: int | None = DEFAULT_ORDER_CAP) -> Group:
    """Build a group from the selector mini-grammar."""
    sel = text.strip()
    if sel == "trivial":
        return construct.cyclic(1)
    if sel.startswith("file:"):
        return load_group_file(sel[5:], order_cap=order_cap)
    if sel.startswith("prod("):  # exactly two selectors, split at a comma outside parentheses
        inner, depth, commas = sel[5:-1], 0, []
        for i, ch in enumerate(inner):
            depth += {"(": 1, ")": -1}.get(ch, 0)
            if depth < 0:
                break
            if ch == "," and depth == 0:
                commas.append(i)
        if not sel.endswith(")") or depth != 0 or len(commas) != 1:
            raise ValueError(f"bad product selector {text!r}")
        return construct.direct_product(parse_selector(inner[:commas[0]], order_cap),
                                        parse_selector(inner[commas[0] + 1:], order_cap),
                                        order_cap=order_cap)
    if ":" not in sel:
        raise ValueError(f"bad selector {text!r}")
    kind, _, arg = sel.partition(":")
    kind = kind.strip().lower()
    if kind == "elab":
        if "^" not in arg:
            raise ValueError("elab selector looks like elab:p^k")
        p, _, k = arg.partition("^")
        return construct.elem_abelian(_int_arg(p), _int_arg(k), order_cap=order_cap)
    builders = {
        "cyclic": construct.cyclic,
        "dihedral": construct.dihedral,
        "sym": construct.symmetric,
        "alt": construct.alternating,
        "quaternion": construct.quaternion,
    }
    if kind not in builders:
        raise ValueError(f"unknown family {kind!r}")
    return builders[kind](_int_arg(arg), order_cap=order_cap)


def _int_arg(arg: str) -> int:
    """A family argument as an int; ValueError naming it when it is not one."""
    try:
        return int(arg)
    except ValueError:
        raise ValueError(f"family argument {arg.strip()!r} is not an integer") from None


def _resolve_group(args) -> Group:
    """The command's group; a bad or oversized selector is bad input that names it."""
    try:
        return parse_selector(args.selector, order_cap=args.order_cap)
    except (OrderCapExceeded, ValueError) as e:
        raise ValueError(f"{args.selector}: {e}") from e


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "structured":
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for key, value in payload.items():
            print(f"{key}: {value}")


def cmd_group_show(args) -> int:
    G = _resolve_group(args)
    phi = frattini(G, budget=args.lattice_budget)  # checks --lattice-budget first
    terms = chief_series(G)
    payload = {
        "label": G.label,
        "order": G.order,
        "center_order": center(G).order,
        "abelian": G.is_abelian(),
        **{F.name: F.contains(G) for F in builtin_formations()},
        "element_orders": {
            str(int(k)): int((G.element_orders == k).sum())
            for k in np.unique(G.element_orders)
        },
        "normal_subgroup_orders": [n.order for n in normal_subgroups(G)],
        "chief_series_orders": [t.order for t in terms],
        "chief_factor_orders": [top.order // bottom.order
                                for top, bottom in zip(terms[1:], terms)],
        "frattini_order": phi.order,
    }
    if args.cayley:
        payload["cayley"] = G.table.tolist()
    _emit(payload, args.format)
    return 0


def _sigma_from_args(args) -> SigmaPartition | None:
    return SigmaPartition.parse(args.sigma) if args.sigma else None


def cmd_formation_subgroup(args) -> int:
    """``residual`` or ``hypercentre``, whichever command was given."""
    G = _resolve_group(args)
    F = formation_by_selector(args.formation, _sigma_from_args(args))
    S = {"residual": residual, "hypercentre": hypercentre}[args.command](G, F)
    _emit(
        {
            "group": G.label,
            "formation": F.name,
            f"{args.command}_order": S.order,
            f"{args.command}_members": S.array.tolist(),
        },
        args.format,
    )
    return 0


def cmd_subnormal(args) -> int:
    G = _resolve_group(args)
    try:
        gens = [int(tok) for tok in args.gens.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"bad generator list {args.gens!r}") from None
    for g in gens:
        if not (0 <= g < G.order):
            raise ValueError(f"generator index {g} out of range 0..{G.order - 1}")
    A = generated_subgroup(G, gens)
    # a bad --sigma or --formation is bad input whatever the kind
    sigma = _sigma_from_args(args)
    F = formation_by_selector(args.formation, sigma)
    if args.kind == "plain":
        chain = is_subnormal(A)
    elif args.kind == "sigma":
        if sigma is None:
            raise ValueError("--kind sigma requires --sigma")
        chain = is_sigma_subnormal(A, sigma, args.lattice_budget)
    else:
        search = is_k_f_subnormal if args.kind == "kf" else is_f_subnormal
        chain = search(A, F, args.lattice_budget)
    payload = {
        "group": G.label,
        "subgroup_order": A.order,
        "kind": args.kind,
        "verdict": "POSITIVE" if chain is not None else "NEGATIVE",
    }
    if chain is not None:
        payload["chain"] = chain.describe()
        payload["chain_orders"] = list(chain.order_trail())
        payload["step_kinds"] = list(chain.step_kinds)
    _emit(payload, args.format)
    return 0


def cmd_verify(args) -> int:
    sigma = _sigma_from_args(args)
    # resolved before the catalog is built, so a bad selector fails at once
    formations = ([formation_by_selector(args.formation, sigma)] if args.formation
                  else builtin_formations(sigma))
    catalog = catalog_generate(args.max_order, files=tuple(args.input or ()),
                               order_cap=args.order_cap)
    sweeps = run_all if args.claim == "all" else verify.CLAIMS[args.claim]
    reports = sweeps(catalog, formations, sigma, args.lattice_budget, args.budget)

    if args.format == "structured":
        print(render_structured(reports, include_timing=args.timings))
    else:
        for r in reports:
            print(r.to_text())
        total_failures = sum(len(r.failures) for r in reports)
        print(
            f"== {len(reports)} report(s); "
            f"{sum(r.checked for r in reports)} checked; "
            f"{sum(r.asserted for r in reports)} asserted; "
            f"{total_failures} failure(s) =="
        )
    if any(r.failures for r in reports):
        return 1
    if any(r.budget_exhausted for r in reports):
        return 2
    return 0


def render_structured(reports, include_timing: bool = False) -> str:
    """Canonical JSON for a list of reports.

    Timing is excluded unless asked for, so identical runs serialize to
    identical bytes.
    """
    payload = {
        "reports": [r.to_dict(include_timing=include_timing) for r in reports],
        "verdict": "PASS" if all(r.passed for r in reports) else "FAIL",
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad configuration (exit 3), not argparse's exit 2."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="finform", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, selector=True, lattice_budget=True):
        if selector:
            p.add_argument("selector", nargs="?", default="trivial",
                           help="group selector; file:<path> reads a group file")
        p.add_argument("--order-cap", type=int, default=DEFAULT_ORDER_CAP)
        if lattice_budget:
            p.add_argument("--lattice-budget", type=int, default=DEFAULT_LATTICE_BUDGET)
        p.add_argument(
            "--format", choices=("text", "structured"), default="text",
            help="text or json-like structured output",
        )

    grp = sub.add_parser("group", help="group inspection")
    gsub = grp.add_subparsers(dest="group_command", required=True)
    show = gsub.add_parser("show", help="order, series, and class flags")
    common(show)
    show.add_argument("--cayley", action="store_true", help="include the full table")
    show.set_defaults(func=cmd_group_show)

    for name in ("residual", "hypercentre"):
        p = sub.add_parser(name, help=f"formation {name} of a group")
        common(p, lattice_budget=False)
        p.add_argument("--formation", required=True)
        p.add_argument("--sigma")
        p.set_defaults(func=cmd_formation_subgroup)

    sn = sub.add_parser("subnormal", help="witness chains for subnormality notions")
    common(sn)
    sn.add_argument("--gens", required=True, help="comma-separated element indices")
    sn.add_argument(
        "--kind", choices=("plain", "kf", "f", "sigma"), default="kf",
        help="chain flavour",
    )
    sn.add_argument("--formation", default="nilpotent")
    sn.add_argument("--sigma")
    sn.set_defaults(func=cmd_subnormal)

    ver = sub.add_parser("verify", help="run verification sweeps over a catalog")
    ver.add_argument("claim", choices=CLAIMS)
    ver.add_argument("--formation")
    ver.add_argument("--sigma")
    ver.add_argument("--max-order", type=int, default=24)
    common(ver, selector=False)
    ver.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET,
                     help="search-node budget of holomorph-bound's automorphism counts; "
                          "other isomorphism and automorphism searches keep the default")
    ver.add_argument("--input", action="append", help="extra group file (repeatable)")
    ver.add_argument("--timings", action="store_true",
                     help="include elapsed_ms in structured output")
    ver.set_defaults(func=cmd_verify)
    return top


def _check_ranges(args) -> None:
    """Range checks on whichever of the numeric options the command has; an
    error names only the option out of range."""
    for option in ("max_order", "order_cap", "budget", "lattice_budget"):
        if getattr(args, option, 1) < 1:
            raise ValueError(f"--{option.replace('_', '-')} must be positive")
    if getattr(args, "max_order", 1) > args.order_cap:
        raise ValueError("max-order cannot exceed order-cap")


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_ranges(args)
        return args.func(args)
    except (ValueError, GroupError) as e:
        print(f"error: {e}", file=sys.stderr)
        if isinstance(e, (ValueError, UnknownFormation, GroupFileError)):
            return 3
        return 2 if isinstance(e, (LatticeBudgetExceeded, SearchBudgetExceeded)) else 1

