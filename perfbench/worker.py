"""One benchmark repetition in a fresh process.

Run from the root of a finform checkout (``run.py`` starts it):

    python3 perfbench/worker.py --workload chains-24 --seed 1 --t0 <monotonic>

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process, so the reported set-up time runs from process start to the first
sweep call. The worker imports ``finform`` from the checkout's ``src/``,
builds the workload's catalog, rebuilds every group from its Cayley table
(relabelled by a seeded bijection unless the seed is 0), runs the sweeps in
the claim order of ``finform verify``, and prints one JSON line with its
timings, its report summary and the digest of the structured reports.

An untraced worker runs the speed probe of ``speed.py`` from its start and
reports every time twice: calibrated (``setup_s``, ``sweep_s``, ``item_s``)
and as plain wall time without the probes (``*_wall_s``). A traced worker
runs no probe and reports wall times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FILES = ("groups/frobenius20.grp", "groups/frobenius21.grp")
SIGMA = "[[2,3]]"

# name -> (catalog max order, sweep plan). The order-8 workloads serve the
# self-test; BENCHMARK.json lists the others.
WORKLOADS = {
    "theorem-b-60": (60, "theorem-b"),
    "chains-24": (24, "chains"),
    "lemmas-24": (24, "lemmas"),
    "theorem-b-8": (8, "theorem-b"),
    "chains-8": (8, "chains"),
    "lemmas-8": (8, "lemmas"),
}


def import_finform():
    """Import finform from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import finform
    import finform.cli  # render_structured; the package does not import it

    if not Path(finform.__file__).resolve().is_relative_to(src):
        raise ImportError(f"finform was imported from {finform.__file__}, not {src}")
    return finform


def rebuild(finform, groups, seed: int):
    """Rebuild each group from its table, relabelled unless the seed is 0.

    The relabelling is a seeded bijection of the elements that fixes the
    identity; rebuilding means no cache of the generated groups survives.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    for G in groups:
        table = np.asarray(G.table)
        if seed:
            perm = np.concatenate(([0], 1 + rng.permutation(G.order - 1)))
            inv = np.argsort(perm)
            table = perm[table[np.ix_(inv, inv)]]
        out.append(finform.construct.from_cayley_table(table, label=G.label))
    return out


def timed_catalog(finform, groups, generated):
    """A Catalog whose iteration records the time spent on each group.

    Timing the yields from outside the sweeps leaves their code and the
    lemma suite's random stream untouched.
    """

    class TimedCatalog(finform.verify.Catalog):
        def __iter__(self):
            for G in self.groups:
                start = time.monotonic()
                yield G
                self.item_spans.append((start, time.monotonic()))

    catalog = TimedCatalog(groups, generated.max_order, generated.description)
    catalog.item_spans = []
    return catalog


def sweep_plan(finform, kind: str, catalog):
    """(claim, function, args) in the order ``finform verify`` runs them."""
    v, fm = finform.verify, finform.formations
    builtins = fm.builtin_formations(None)
    if kind == "theorem-b":
        return [("theorem-b", v.verify_theorem_b, (catalog, F)) for F in builtins]
    if kind == "chains":
        plan = [
            ("theorem-a", v.verify_theorem_a, (catalog, F))
            for F in builtins
            if F.hereditary and F.saturated
        ]
        plan.append(("schenkman", v.verify_schenkman_classic, (catalog,)))
        sigma = fm.SigmaPartition.parse(SIGMA)
        plan.append(("section3", v.verify_section3_corollaries, (catalog, sigma)))
        return plan
    if kind == "lemmas":
        return [
            ("lemmas", v.verify_lemma_suite, (catalog, F))
            for F in (fm.NILPOTENT, fm.SUPERSOLUBLE)
        ]
    raise ValueError(f"unknown sweep plan {kind!r}")


def summarize(reports) -> list[dict]:
    """What must not change under relabelling: counts, not members or labels."""
    out = []
    for r in reports:
        skips = Counter(s.get("reason", "?") for s in r.skipped)
        out.append({
            "claim": r.claim,
            "formation": r.formation,
            "sigma": r.sigma,
            "checked": r.checked,
            "asserted": r.asserted,
            "failures": len(r.failures),
            "skipped": dict(sorted(skips.items())),
        })
    return out


def digest(finform, reports) -> str:
    """sha256 of the structured reports, timings off, as ``finform verify`` prints them."""
    return hashlib.sha256(finform.cli.render_structured(reports).encode()).hexdigest()


def failed_items(reports) -> int:
    """Items (one group in one pass) with a failure or a budget-exceeded skip."""
    total = 0
    for r in reports:
        groups = {f.get("group") for f in r.failures}
        groups |= {s.get("group") for s in r.skipped if s.get("reason") == "budget-exceeded"}
        total += len(groups)
    return total


def trace_stats(tracer, setup_self: dict, sweep_s: float, setup_s: float) -> dict:
    stats = {
        name: {
            "calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
            "repeats": st.repeats, "size_sum": st.size_sum, "found": st.found,
            "budget_exceeded": st.budget_exceeded,
        }
        for name, st in tracer.stats.items()
    }
    final = tracer.self_by_name()
    sweep_self = {name: s - setup_self.get(name, 0.0) for name, s in final.items()}
    return {
        "stats": stats,
        "sweep_self": sweep_self,
        "sweep_s": sweep_s,
        "setup_s": setup_s,
        "spans": len(tracer.span_start),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out", help="trace the run and write its spans here")
    args = ap.parse_args(argv)
    max_order, kind = WORKLOADS[args.workload]

    probe = None
    if not args.trace_out:
        from speed import SpeedProbe

        probe = SpeedProbe()
        probe.start()
    finform = import_finform()
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(finform)

    def traced(name, fn):
        return tracer.wrap(name, fn, spans=True) if tracer else fn

    t_setup = time.perf_counter()
    generated = traced("verify.catalog_generate", finform.verify.catalog_generate)(
        max_order, files=FILES
    )
    catalog = timed_catalog(
        finform, rebuild(finform, generated.groups, args.seed), generated
    )
    plan = sweep_plan(finform, kind, catalog)
    setup_self = tracer.self_by_name() if tracer else {}
    t_first = time.monotonic()
    t_sweep = time.perf_counter()
    reports = []
    if not args.setup_only:
        for claim, fn, fn_args in plan:
            result = traced(f"verify.{claim}", fn)(*fn_args)
            reports.extend(result if isinstance(result, list) else [result])
    t_last = time.monotonic()
    sweep_s = time.perf_counter() - t_sweep

    times = {"setup_s": t_first - args.t0, "sweep_s": sweep_s,
             "item_s": [end - start for start, end in catalog.item_spans]}
    if probe:
        probe.stop()
        clocks = {"": probe.clock(args.t0), "_wall": probe.clock(args.t0, calibrate=False)}
        times = {"probes": clocks[""].probes, "probe_median_s": clocks[""].median_cost}
        for suffix, clock in clocks.items():
            times[f"setup{suffix}_s"] = clock(t_first)
            times[f"sweep{suffix}_s"] = clock.span(t_first, t_last)
            times[f"item{suffix}_s"] = [clock.span(*span) for span in catalog.item_spans]
    if args.setup_only:
        print(json.dumps({k: v for k, v in times.items() if not k.startswith(("sweep", "item"))}))
        return 0

    out = {
        **times,
        "items": len(catalog) * len(reports),
        "failed_items": failed_items(reports),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "summary": summarize(reports),
        "digest": digest(finform, reports),
    }
    if tracer:
        out["trace"] = trace_stats(tracer, setup_self, sweep_s, t_sweep - t_setup)
        Path(args.trace_out).parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
