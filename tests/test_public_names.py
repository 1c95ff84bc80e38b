"""Every public module-level function and class in the package has a caller.

A public name (no leading underscore) defined at the top of a module under
src/clirset/ must be referenced from src/ or perfbench/ somewhere besides
its own definition: by name, as an attribute, or as a string, which is how
perfbench/tracing.py names the layers it wraps. Re-exports (imports and
`__all__`) do not count, and of the tests only the acceptance contract,
tests/test_acceptance.py, does: it names the API the package promises
(`searcher_objective` is its gradient check's one entry point). A public
function that only the other tests call is code the program does not need.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clirset"
READERS = (ROOT / "src", ROOT / "perfbench", ROOT / "tests" / "test_acceptance.py")


def public_definitions(tree: ast.Module) -> list[str]:
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    ]


def is_all(node: ast.stmt) -> bool:
    targets = node.targets if isinstance(node, ast.Assign) else []
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def referenced_names(tree: ast.Module) -> set[tuple[str | None, str]]:
    """(top-level definition the reference sits in or None, name) of every reference."""
    found = set()
    for statement in tree.body:
        if isinstance(statement, (ast.Import, ast.ImportFrom)) or is_all(statement):
            continue
        owner = getattr(statement, "name", None)
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                found.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                found.add((owner, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add((owner, node.value))
    return found


def test_every_public_name_has_a_reference_outside_its_definition():
    defined = {
        path: public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    references = {
        path: referenced_names(ast.parse(path.read_text(encoding="utf-8")))
        for base in READERS
        for path in ([base] if base.is_file() else sorted(base.rglob("*.py")))
    }
    assert any(defined.values())
    unreferenced = [
        f"{path.relative_to(ROOT)}: {name}"
        for path, names in defined.items()
        for name in names
        if not any(
            ref == name and not (reader == path and owner == name)
            for reader, refs in references.items()
            for owner, ref in refs
        )
    ]
    assert unreferenced == []
