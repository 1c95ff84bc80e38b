"""The names the benchmark's traced run calls stay where it looks for them.

perfbench/tracing.py resolves each name in its LAYERS dict from
clirset.<module> only when that layer runs, and reports a name it cannot
find as an absent metric. Importing them here turns a rename into a test
failure instead.
"""

import ast
import importlib
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
