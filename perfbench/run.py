"""The finform benchmark: cold-cache verification sweeps, timed end to end.

Run from the root of a finform checkout:

    python3 perfbench/run.py --workload chains-24 --seed 1 --seconds 45 --trace 0

Workloads (catalog = ``catalog_generate(N, files=<the two shipped Frobenius
groups>)``, the only catalog members on which the theorems' hypotheses hold):

- ``theorem-b-60``: ``verify theorem-b`` for the three built-in formations at
  order 60. Time goes to ``normal_subgroups`` and its joins; A5's section
  products set the peak memory. No subgroup lattice, chain search or
  automorphism search runs.
- ``chains-24``: ``theorem-a`` for the built-in formations, ``schenkman`` and
  the ``section3`` sweeps with sigma ``[[2,3]]`` at order 24. Time goes to
  ``all_subgroups``, the chain searches and small hypercentres; the later
  passes reuse the lattices the first pass built.
- ``lemmas-24``: the lemma suite for nilpotent and supersoluble at order 24.
  It builds many section products, quotients and subgroups, and spends
  little time in chain search.

Each repetition runs in a fresh process (``worker.py``), so every cache
starts cold. With ``--trace 0`` the run first starts a few set-up-only
processes, then repeats the workload while another repetition fits in
``--seconds`` (always at least one), and prints the end-to-end metrics:

- ``sweep_s``: time from the first sweep call to the last report, median
  over repetitions;
- ``item_p50_ms``, ``item_p90_ms``: time per item (one catalog group visited
  by one sweep pass), Harrell-Davis quantiles over the items of all
  repetitions;
- ``peak_rss_mb``: maximum resident set of a repetition's process, median;
- ``setup_s``: process start to first sweep call (import, catalog
  generation with its isomorphism dedupe, file loads, the rebuild of every
  group from its table), median over all processes started;
- ``failed_frac`` is printed too: items with a conclusion failure, a
  budget-exceeded skip or an exception, over items attempted.

The times are calibrated (``speed.py``): a timed worker runs a small fixed
probe every 20 ms, and each stretch of time is rescaled by the probe's cost
around it, which divides out the shared host's drifting speed. The wall
times, with the probes left out, are printed beside them; the JSON result
carries the calibrated ones.

With ``--trace 1`` the run makes one untraced and one traced repetition and
prints the per-layer metrics (see ``tracer.py``) as wall times; spans go to
``.perfbench-out/``.

Correctness gate: every repetition's report summary (per report: claim,
formation, sigma, checked, asserted, failure count, skip counts by reason)
must equal ``reference.json``; at seed 0 the sha256 of
``render_structured(reports)`` must match as well. Seed 0 uses the catalog
as generated; another seed relabels every group by a seeded bijection, which
changes member lists but not the summary. ``reference.json`` holds the
``summary`` and ``digest`` a seed-0 worker prints at the commit that added
the benchmark. On any mismatch every item of the run counts as failed.

The last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``selftest.py`` checks the benchmark itself on
order-8 catalogs; ``baseline.json`` holds the numbers measured at the commit
that added the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import REFERENCE_PROBE_S  # noqa: E402

ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 5
RUN_DEADLINE_S = 170  # a run must end within 180 s

END_TO_END = {
    "sweep_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# function -> kinds reported for it; subnormal.chain_search sums the three
# is_*_subnormal chain searches.
LAYERS = {
    "lattice.normal_subgroups": ("calls", "self_s", "total_s", "repeat_frac", "size_sum"),
    "lattice.chief_series_through": ("calls", "self_s"),
    "lattice.all_subgroups": ("calls", "self_s", "repeat_frac", "size_sum", "budget_exceeded"),
    "groups.join": ("calls", "self_s"),
    "groups.generated_subgroup": ("calls", "self_s"),
    "groups.normal_closure": ("calls", "self_s", "total_s", "repeat_frac"),
    "groups.quotient": ("calls", "self_s", "total_s", "repeat_frac"),
    "groups.centralizer_of_section": ("calls", "self_s", "total_s", "repeat_frac"),
    "groups.Subgroup": ("calls",),
    "groups.Group": ("calls",),
    "groups.Subgroup.as_group": ("calls", "repeat_frac"),
    "formations.hypercentre": ("calls", "self_s", "total_s"),
    "formations.residual": ("calls", "total_s"),
    "formations.section_product": ("calls", "total_s", "repeat_frac"),
    "formations.is_supersoluble": ("calls", "self_s"),
    "formations.Formation.contains": ("calls", "repeat_frac"),
    "construct.semidirect_section": ("calls", "self_s", "size_sum"),
    "construct.from_cayley_table": ("calls", "self_s"),
    "subnormal.chain_search": ("calls", "self_s", "found_frac"),
    "subnormal.is_subnormal": ("calls", "self_s"),
    "morphisms.is_isomorphic": ("calls", "self_s"),
    "morphisms.automorphisms": ("calls", "self_s", "budget_exceeded"),
    "files.load_group_file": ("calls", "self_s"),
}
CHAIN_SEARCHES = ("subnormal.is_k_f_subnormal", "subnormal.is_f_subnormal",
                  "subnormal.is_sigma_subnormal")
MODULES = ("lattice", "groups", "formations", "subnormal", "morphisms", "construct", "files")
CLAIMS = ("theorem-b", "theorem-a", "schenkman", "section3", "lemmas")
UNITS = {"calls": "count", "size_sum": "count", "budget_exceeded": "count",
         "self_s": "s", "total_s": "s", "repeat_frac": "ratio", "found_frac": "ratio"}


# Times of layers that do not run on every workload. They read exactly 0.0
# wherever the layer is idle, so they are printed but left out of the JSON
# metrics; verify.sweep_self_s carries the sum of the per-claim self times.
PRINTED_ONLY = frozenset(
    ["lattice.all_subgroups.self_s", "subnormal.chain_search.self_s",
     "subnormal.is_subnormal.self_s", "morphisms.automorphisms.self_s"]
    + [f"{m}.sweep_self_s" for m in ("subnormal", "morphisms", "files")]
    + [f"verify.{c}.self_s" for c in CLAIMS]
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric name with its unit, in output order."""
    names = {f"{fn}.{kind}": UNITS[kind] for fn, kinds in LAYERS.items() for kind in kinds}
    names.update({f"{m}.sweep_self_s": "s" for m in MODULES})
    names.update({f"verify.{c}.self_s": "s" for c in CLAIMS})
    names["verify.sweep_self_s"] = "s"
    names["verify.catalog_generate.self_s"] = "s"
    names.update({"tracing.sweep_s": "s", "tracing.setup_s": "s",
                  "tracing.overhead_s": "s", "tracing.spans": "count"})
    return names


def per_layer_metrics() -> dict[str, str]:
    """The per-layer metrics of the JSON result (and of BENCHMARK.json)."""
    return {n: u for n, u in per_layer_names().items() if n not in PRINTED_ONLY}


# -- workers -------------------------------------------------------------------


class WorkerFailed(Exception):
    pass


def run_worker(workload: str, seed: int, deadline: float, *extra: str) -> dict:
    """Start one worker process, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--t0", repr(t0), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise WorkerFailed("worker ran past the run's deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise WorkerFailed(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - t0
    return result


def gate(result: dict, reference: dict, seed: int) -> list[str]:
    """Reasons the repetition's reports differ from the reference."""
    problems = []
    if result["summary"] != reference["summary"]:
        problems.append("report summary differs from reference.json")
    if seed == 0 and result["digest"] != reference["digest"]:
        problems.append("structured-report digest differs from reference.json")
    return problems


def quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile.

    A mean of all order statistics weighted by a Beta((n+1)q, (n+1)(1-q))
    distribution, so a quantile that falls in a gap between item times does
    not jump from one side of it to the other between runs.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1 - q) * (n + 1)
    grid = np.linspace(0.0, 1.0, 100_001)[1:-1]
    log_pdf = (a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf, left=0.0, right=1.0))
    return float(weights @ x)


# -- runs ----------------------------------------------------------------------


def timed_run(workload, seed, seconds, reference, deadline):
    start = time.monotonic()
    setups, reps, problems = [], [], []
    attempted = failed = 0
    try:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(workload, seed, deadline, "--setup-only"))
    except WorkerFailed as e:
        return None, [str(e)]
    while True:
        try:
            rep = run_worker(workload, seed, deadline)
        except WorkerFailed as e:
            problems.append(str(e))
            break
        reps.append(rep)
        setups.append(rep)
        attempted += rep["items"]
        bad = gate(rep, reference, seed)
        problems += bad
        failed += rep["items"] if bad else rep["failed_items"]
        elapsed = time.monotonic() - start
        if elapsed + rep["wall_s"] > seconds:
            break
    if not reps:
        return None, problems
    if problems:
        failed = attempted
    def times(suffix):
        items_ms = [t * 1000 for rep in reps for t in rep[f"item{suffix}_s"]]
        return {
            "sweep_s": (statistics.median(r[f"sweep{suffix}_s"] for r in reps), len(reps)),
            "item_p50_ms": (quantile(items_ms, 0.5), len(items_ms)),
            "item_p90_ms": (quantile(items_ms, 0.9), len(items_ms)),
            "setup_s": (statistics.median(s[f"setup{suffix}_s"] for s in setups), len(setups)),
        }

    metrics = times("")
    metrics["peak_rss_mb"] = (statistics.median(r["rss_mb"] for r in reps), len(reps))
    wall = times("_wall")
    for name in END_TO_END:
        value, n = metrics[name]
        shown = f"  wall {wall[name][0]:12.4f}" if name in wall else ""
        print(f"{name:<14} {value:12.4f} {END_TO_END[name]:<5} (n={n}){shown}")
    probe_ms = statistics.median(r["probe_median_s"] for r in reps) * 1000
    print(f"speed probe: median cost {probe_ms:.4f} ms over "
          f"{sum(r['probes'] for r in reps)} probes; reference {REFERENCE_PROBE_S * 1000} ms")
    frac = failed / attempted if attempted else 1.0
    print(f"{'failed_frac':<14} {frac:12.4f} ratio (n={attempted}, failed={failed})")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, (v, _) in metrics.items()},
    }, problems


def layer_metrics(trace: dict, untraced_sweep_s: float) -> dict[str, float]:
    stats = trace["stats"]
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "repeats": 0, "size_sum": 0,
            "found": 0, "budget_exceeded": 0}
    chain = dict(zero)
    for name in CHAIN_SEARCHES:
        for k, v in stats.get(name, zero).items():
            chain[k] += v
    values = {}
    for fn, kinds in LAYERS.items():
        st = chain if fn == "subnormal.chain_search" else stats.get(fn, zero)
        for kind in kinds:
            if kind == "repeat_frac":
                v = st["repeats"] / st["calls"] if st["calls"] else 0.0
            elif kind == "found_frac":
                v = st["found"] / st["calls"] if st["calls"] else 0.0
            else:
                v = st[kind]
            values[f"{fn}.{kind}"] = v
    sweep_self = trace["sweep_self"]
    for m in MODULES:
        values[f"{m}.sweep_self_s"] = sum(
            s for name, s in sweep_self.items() if name.startswith(m + "."))
    for c in CLAIMS:
        values[f"verify.{c}.self_s"] = stats.get(f"verify.{c}", zero)["self_s"]
    values["verify.sweep_self_s"] = sum(values[f"verify.{c}.self_s"] for c in CLAIMS)
    values["verify.catalog_generate.self_s"] = stats["verify.catalog_generate"]["self_s"]
    values["tracing.sweep_s"] = trace["sweep_s"]
    values["tracing.setup_s"] = trace["setup_s"]
    values["tracing.overhead_s"] = trace["sweep_s"] - untraced_sweep_s
    values["tracing.spans"] = trace["spans"]
    return values


def traced_run(workload, seed, reference, deadline):
    problems = []
    try:
        plain = run_worker(workload, seed, deadline)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        traced = run_worker(workload, seed, deadline, "--trace-out", str(spans))
    except WorkerFailed as e:
        return None, [str(e)]
    problems += gate(plain, reference, seed) + gate(traced, reference, seed)
    attempted = plain["items"] + traced["items"]
    failed = attempted if problems else plain["failed_items"] + traced["failed_items"]
    values = layer_metrics(traced["trace"], plain["sweep_wall_s"])
    for name, unit in per_layer_names().items():
        note = "  (printed only)" if name in PRINTED_ONLY else ""
        value = values[name]
        shown = f"{value:14.6f}" if isinstance(value, float) else f"{value:14d}"
        print(f"{name:<44} {shown} {unit}{note}")
    layer_sum = sum(values[f"{m}.sweep_self_s"] for m in MODULES)
    claim_sum = values["verify.sweep_self_s"]
    print(f"sweep self-time check: layers {layer_sum:.4f} s + verify {claim_sum:.4f} s "
          f"= {layer_sum + claim_sum:.4f} s; traced sweep_s {values['tracing.sweep_s']:.4f} s")
    print(f"spans written to {spans.relative_to(ROOT)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": u} for n, u in per_layer_metrics().items()},
    }, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="finform verification-sweep benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    needed = [ROOT / "src" / "finform" / "__init__.py",
              ROOT / "groups" / "frobenius20.grp", ROOT / "groups" / "frobenius21.grp"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: not a finform checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "reference.json").read_text())["workloads"]
    if args.workload not in references:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    reference = references[args.workload]

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    if args.trace:
        result, problems = traced_run(args.workload, args.seed, reference, deadline)
    else:
        result, problems = timed_run(args.workload, args.seed, args.seconds, reference, deadline)
    for p in dict.fromkeys(problems):
        print(f"GATE: {p}")
    if result is None:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print("correctness gate:", "FAILED" if problems else "passed")
    print(json.dumps({"correct": not problems, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
