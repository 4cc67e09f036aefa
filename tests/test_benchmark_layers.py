"""The names the benchmark reaches in ``finform`` still exist.

``perfbench/run.py`` reports per-layer metrics for the functions named in
its ``LAYERS`` table, reading ``subnormal.chain_search`` as the sum of its
three ``CHAIN_SEARCHES``; ``perfbench/worker.py`` builds the catalog and runs
the sweeps through ``finform`` attributes; ``perfbench/tracer.py`` replaces
class attributes such as ``Group.__init__``. A deleted or renamed name would
only show up when the benchmark runs; these tests read the files' source
with ``ast``, without importing or changing anything under ``perfbench/``.
"""

import ast
from functools import reduce
from pathlib import Path

import finform

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RUN_PY = PERFBENCH / "run.py"


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


def _dotted(node) -> list[str] | None:
    """``a.b.c`` as ["a", "b", "c"] when node is an attribute chain on a name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    return [node.id] + parts if isinstance(node, ast.Name) and parts else None


def _worker_names() -> set[str]:
    """Every attribute chain ``worker.py`` reads off ``finform``, directly or
    through a name bound to a submodule (``v, fm = finform.verify, ...``)."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text())
    roots = {"finform": []}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and all(
                isinstance(side, ast.Tuple) for side in (node.targets[0], node.value)):
            for name, value in zip(node.targets[0].elts, node.value.elts):
                chain = _dotted(value)
                if chain and chain[0] == "finform":
                    roots[name.id] = chain[1:]
    chained = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names = set()
    for node in ast.walk(tree):
        chain = _dotted(node) if id(node) not in chained else None  # longest chains only
        if chain and chain[0] in roots:
            names.add(".".join(roots[chain[0]] + chain[1:]))
    return names - {"__file__"}


def test_every_worker_name_resolves_in_finform():
    names = _worker_names()
    assert names >= {
        "verify.Catalog", "verify.catalog_generate", "verify.verify_theorem_b",
        "verify.verify_theorem_a", "verify.verify_schenkman_classic",
        "verify.verify_section3_corollaries", "verify.verify_lemma_suite",
        "construct.from_cayley_table", "cli.render_structured",
        "formations.builtin_formations", "formations.SigmaPartition.parse",
        "formations.NILPOTENT", "formations.SUPERSOLUBLE",
    }
    import finform.cli  # the package does not import it; the worker does

    missing = []
    for name in sorted(names):
        try:
            reduce(getattr, name.split("."), finform)
        except AttributeError:
            missing.append(name)
    assert not missing, f"reached by perfbench/worker.py but gone from finform: {missing}"


def test_every_tracer_hook_is_a_class_attribute():
    # an assignment to module.Class.attr replaces that attribute; one the
    # class only inherits (a deleted Subgroup.__init__ is object's) would be
    # traced on the wrong function
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = {
        ".".join(chain)
        for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for chain in map(_dotted, node.targets) if chain and len(chain) == 3
    }
    assert hooks == {"groups.Group.__init__", "groups.Subgroup.__init__",
                     "groups.Subgroup.as_group", "formations.Formation.contains"}
    for hook in hooks:
        module, cls, attr = hook.split(".")
        owner = getattr(getattr(finform, module), cls)
        assert attr in vars(owner) and callable(vars(owner)[attr]), hook
