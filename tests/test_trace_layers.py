"""The names the benchmark's traced run calls stay where it looks for them.

perfbench/tracing.py resolves each name in its LAYERS dict from
clirset.<module> only when that layer runs, and reports a name it cannot
find as an absent metric. Importing them here, and binding the arguments
of each `L.<name>(...)` call to the signature of what it calls, turns a
rename or a dropped parameter into a test failure instead.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def traced_layers() -> dict[str, tuple[str, ...]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "LAYERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACING} has no LAYERS dict")


def test_every_traced_name_imports():
    layers = traced_layers()
    assert layers
    missing = [
        f"clirset.{module}.{name}"
        for module, names in layers.items()
        for name in names
        if not hasattr(importlib.import_module(f"clirset.{module}"), name)
    ]
    assert missing == []


def traced_calls() -> list[tuple[int, list[str], ast.Call]]:
    """(line, [name, attribute, ...], call) of every `L.<name>...(...)` call."""
    calls = []
    for node in ast.walk(ast.parse(TRACING.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if isinstance(func, ast.Name) and func.id == "L" and chain:
            calls.append((node.lineno, chain, node))
    return calls


def test_every_traced_call_binds_to_the_library_signature():
    modules = {name: module for module, names in traced_layers().items() for name in names}
    calls = traced_calls()
    assert calls
    unbound = []
    for lineno, (name, *attrs), call in calls:
        target = getattr(importlib.import_module(f"clirset.{modules[name]}"), name)
        for attr in attrs:
            target = getattr(target, attr)
        where = f"tracing.py:{lineno}: L.{'.'.join([name, *attrs])}"
        starred = any(isinstance(arg, ast.Starred) for arg in call.args)
        assert not starred and all(kw.arg for kw in call.keywords), (
            f"{where} unpacks its arguments"
        )
        try:
            inspect.signature(target).bind(
                *call.args, **{kw.arg: kw.value for kw in call.keywords}
            )
        except TypeError as exc:
            unbound.append(f"{where}: {exc}")
    assert unbound == []
