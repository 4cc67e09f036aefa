"""Quick self-test of the benchmark on the order-8 catalogs (under a minute).

    python3 perfbench/selftest.py

It checks that BENCHMARK.json lists the metrics run.py prints, that the
calibrated clock of ``speed.py`` scales and skips as documented, that a timed
and a traced run print every metric with its unit and pass the correctness
gate (at seed 0 and, relabelled, at another seed), that the traced self
times add up to the traced sweep time, and that a tampered report trips
the gate. It exits non-zero at the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"FAIL: {what}")


def bench(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """Run the benchmark; return its printed metric lines and its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    check(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0")
    lines = proc.stdout.strip().splitlines()
    shown = {}  # metric lines look like "<name> <value> <unit> ..."
    for line in lines[:-1]:
        parts = line.split()
        try:
            shown[parts[0]] = (float(parts[1]), parts[2])
        except (IndexError, ValueError):
            pass
    return shown, json.loads(lines[-1])


def check_declared_metrics() -> None:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    check(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    check(layers == run.per_layer_metrics(), "BENCHMARK.json per_layer matches run.py")
    references = json.loads((HERE / "reference.json").read_text())["workloads"]
    check(all(w["name"] in references for w in declared["workloads"]),
          "every declared workload has a reference")
    print("ok: BENCHMARK.json matches the metrics and references of run.py")


def check_calibrated_clock() -> None:
    probes = speed.SpeedProbe()
    ref = speed.REFERENCE_PROBE_S
    # Probes at 1, 2, 3, 4 s; the first two cost twice the reference, the last two equal it.
    for start, cost in ((1.0, 2 * ref), (2.0, 2 * ref), (3.0, ref), (4.0, ref)):
        probes.starts.append(start)
        probes.ends.append(start + cost)
    clock = probes.clock(0.0)
    check(abs(clock(1.0) - 0.5) < 1e-9, "work before the first probe is scaled by its cost")
    check(clock(1.0) == clock(1.0 + 2 * ref), "time inside a probe is left out")
    check(abs(clock.span(3.0 + ref, 4.0) - (1.0 - ref)) < 1e-9,
          "time between probes at the reference cost reads as wall time")
    wall = probes.clock(0.0, calibrate=False)
    check(abs(wall(4.0) - (4.0 - 5 * ref)) < 1e-9, "the wall clock leaves out only the probes")
    print("ok: calibrated clock scales by probe cost and leaves probes out")


def check_gate_trips() -> None:
    finform = worker.import_finform()
    reference = json.loads((HERE / "reference.json").read_text())["workloads"]["theorem-b-8"]
    generated = finform.verify.catalog_generate(8, files=worker.FILES)
    catalog = worker.timed_catalog(finform, worker.rebuild(finform, generated.groups, 0), generated)
    reports = [fn(*args) for _, fn, args in worker.sweep_plan(finform, "theorem-b", catalog)]

    def result_of(reps):
        return {"summary": worker.summarize(reps), "digest": worker.digest(finform, reps)}

    check(run.gate(result_of(reports), reference, 0) == [], "untampered reports pass the gate")
    reports[0].asserted += 1
    check(run.gate(result_of(reports), reference, 1) != [], "a tampered count trips the gate")
    reports[0].asserted -= 1
    reports[0].skipped[0]["detail"] += " (tampered)"
    check(run.gate(result_of(reports), reference, 0) != [],
          "a tampered detail trips the seed-0 digest check")
    check(run.gate(result_of(reports), reference, 1) == [],
          "at other seeds only the label-invariant summary is compared")
    print("ok: tampered reports trip the gate")


def check_timed_runs() -> None:
    for workload, seed in (("theorem-b-8", 0), ("chains-8", 3), ("lemmas-8", 0)):
        shown, result = bench(workload, seed, 0)
        check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
              f"{workload} seed {seed} passes the gate with nothing failed")
        metrics = result["metrics"]
        check(set(metrics) == set(run.END_TO_END), f"{workload}: JSON has the end-to-end metrics")
        for name, unit in run.END_TO_END.items():
            check(metrics[name]["unit"] == unit and metrics[name]["value"] > 0,
                  f"{workload}: {name} in JSON with unit {unit}")
            check(shown.get(name, (0, ""))[1] == unit, f"{workload}: {name} printed in {unit}")
        check(shown.get("failed_frac") == (0.0, "ratio"), f"{workload}: failed_frac printed")
        print(f"ok: {workload} seed {seed} prints every end-to-end metric and passes the gate")


def check_traced_run() -> None:
    shown, result = bench("chains-8", 0, 1)
    check(result["correct"], "traced chains-8 passes the gate")
    metrics = result["metrics"]
    check(set(metrics) == set(run.per_layer_metrics()), "traced JSON has the per-layer metrics")
    for name, unit in run.per_layer_names().items():
        check(shown.get(name, (0, ""))[1] == unit, f"traced run prints {name} in {unit}")
        check(name not in metrics or metrics[name]["unit"] == unit, f"{name} in JSON as {unit}")
    check(metrics["subnormal.chain_search.calls"]["value"] > 0, "chain searches are traced")
    total = sum(shown[f"{m}.sweep_self_s"][0] for m in run.MODULES)
    total += shown["verify.sweep_self_s"][0]
    sweep = metrics["tracing.sweep_s"]["value"]
    check(abs(total - sweep) <= 0.01 * sweep,
          f"layer and verify self times ({total:.4f} s) add up to the traced sweep ({sweep:.4f} s)")
    print("ok: traced run prints every per-layer metric; self times add up to the sweep")


def main() -> int:
    check_declared_metrics()
    check_calibrated_clock()
    check_gate_trips()
    check_timed_runs()
    check_traced_run()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
