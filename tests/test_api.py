"""The public surface resolves: every name in an agglab module's __all__,
and every agglab name the benchmark under perfbench/ calls or wraps."""

import ast
import importlib
import importlib.util
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


def _agglab_references(tree):
    """Dotted names read through `from agglab import m [as alias]` aliases."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "agglab":
            for a in node.names:
                aliases[a.asname or a.name] = f"agglab.{a.name}"
    refs = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases and chain:
            refs.add((aliases[node.id], tuple(reversed(chain))))
    return refs


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
