"""What `src/cohsum` exposes: no public name without a caller, no lost trace target."""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "cohsum").glob("*.py"))

# public names that no code in src/ uses yet, each with the reason it stays
ALLOWED_UNREFERENCED = {
    "coherence.pairwise_accuracy": "waits for the planned evaluate-coherence command",
}


def _public_definitions(tree: ast.Module) -> list[str]:
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names read as identifiers, attributes or import aliases; strings and docstrings do not count."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_function_and_class_in_src_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    referenced = set().union(*(_referenced_names(tree) for tree in trees.values()))
    unreferenced = {f"{module}.{name}" for module, tree in trees.items()
                    for name in _public_definitions(tree) if name not in referenced}
    assert unreferenced == set(ALLOWED_UNREFERENCED)


def test_every_trace_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer("surface")
    try:
        t.install()
        assert t.missing == []
    finally:
        t.uninstall()
