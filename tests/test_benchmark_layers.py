"""The routines the benchmark times layer by layer still exist.

``perfbench/run.py`` reports per-layer metrics for the functions named in
its ``LAYERS`` table, reading ``subnormal.chain_search`` as the sum of its
three ``CHAIN_SEARCHES``. A deleted or renamed routine would only show up
when the benchmark runs; this test reads the two tables from the file's
source, without importing or changing anything under ``perfbench/``.
"""

import ast
from functools import reduce
from pathlib import Path

import finform

RUN_PY = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def _tables() -> dict:
    tables = {}
    for node in ast.parse(RUN_PY.read_text()).body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id in ("LAYERS", "CHAIN_SEARCHES"):
                    tables[target.id] = ast.literal_eval(node.value)
    return tables


def test_every_timed_layer_resolves_in_finform():
    tables = _tables()
    layers = set(tables["LAYERS"])
    assert "subnormal.chain_search" in layers
    names = sorted(layers - {"subnormal.chain_search"}) + list(tables["CHAIN_SEARCHES"])
    missing = []
    for name in names:
        try:
            target = reduce(getattr, name.split("."), finform)
        except AttributeError:
            missing.append(name)
            continue
        assert callable(target), name
    assert not missing, f"timed by perfbench/run.py but gone from finform: {missing}"
