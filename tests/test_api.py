"""The public surface resolves: every name in an agglab module's __all__,
and every agglab name the benchmark under perfbench/ calls or wraps."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import agglab

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ["agglab"] + [f"agglab.{m.name}" for m in pkgutil.iter_modules(agglab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def _aliases(tree):
    """Local names of `from agglab import m [as alias]` imports."""
    return {a.asname or a.name: f"agglab.{a.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "agglab"
            for a in node.names}


def _reference(node, aliases):
    """(module, attribute chain) when node is a dotted name read through an
    agglab alias, else None."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id in aliases and chain:
        return aliases[node.id], tuple(reversed(chain))
    return None


def _agglab_references(tree):
    """Dotted names read through `from agglab import m [as alias]` aliases."""
    aliases = _aliases(tree)
    return {ref for node in ast.walk(tree) if (ref := _reference(node, aliases))}


def _perfbench_references():
    refs = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        refs |= _agglab_references(ast.parse(path.read_text()))
    return refs


def test_every_agglab_name_perfbench_reads_exists():
    refs = _perfbench_references()
    assert any(chain == ("run_suite",) for _, chain in refs)  # the scan sees the benchmark
    missing = []
    for module, chain in sorted(refs):
        obj = importlib.import_module(module)
        for attr in chain:
            if not hasattr(obj, attr):
                missing.append(f"{module}.{'.'.join(chain)}")
                break
            obj = getattr(obj, attr)
    assert missing == []


def test_every_agglab_name_perfbench_reads_is_exported():
    unexported = sorted(f"{module}.{chain[0]}" for module, chain in _perfbench_references()
                        if chain[0] not in importlib.import_module(module).__all__)
    assert unexported == []


def test_every_entry_point_perfbench_wraps_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = spans.Installed(spans.Tracer()).targets
    assert len(targets) >= 15
    assert [f"{owner.__name__}.{attr}" for owner, attr, _, _ in targets
            if not hasattr(owner, attr)] == []


def test_every_agglab_call_perfbench_makes_binds_its_arguments():
    # the call's positional count and keyword names, bound to the signature
    bound, unbound = set(), []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = _aliases(tree)
        for node in ast.walk(tree):
            ref = isinstance(node, ast.Call) and _reference(node.func, aliases)
            if not ref:
                continue
            obj = importlib.import_module(ref[0])
            for attr in ref[1]:
                obj = getattr(obj, attr)
            positional = [None for a in node.args if not isinstance(a, ast.Starred)]
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            try:
                inspect.signature(obj).bind_partial(*positional, **keywords)
            except TypeError as exc:
                unbound.append(f"{path.name}:{node.lineno} {'.'.join(ref[1])}: {exc}")
            bound.add((ref[1], tuple(sorted(keywords))))
    assert unbound == []
    # the scan sees the budget and spec-builder calls, with their keywords
    assert (("default_ablation_cells",), ("budget_width", "n_layers", "s_values")) in bound
    assert (("triangle_model_specs",), ("d_in", "n_layers", "re_sum", "s")) in bound
