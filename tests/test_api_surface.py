"""The library's public surface is what the pipeline runs.

Every public function and method in `src/cocyclelab` must be referenced
somewhere in `src` outside its own definition, so an API that only
tests call, or that nothing calls, shows up here.  References are
matched by name (a bare name or an attribute), so a method is reached
when any attribute of that name is read; an allowlisted name may also be
reached that way (`main` by the module's `__main__` guard), and is
listed for its reason all the same.
"""
import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "cocyclelab"

# public names that nothing in src calls, each kept for a stated reason
ALLOWED = {
    "cli.main": "the console-script entry point, called by the installer's wrapper",
    "driver.RunReport.by_kind": "documented accessor of a report's records",
}


def public_definitions(tree: ast.Module, module: str):
    """(qualified name, definition node) of each public module-level
    function and each public method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item


def references(tree: ast.Module):
    """(name, line) of every bare name and attribute read in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(references(tree)) for module, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for qualified, node in public_definitions(tree, module):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(name == node.name and not (where == module and line in inside)
                       for where, found in refs.items() for name, line in found)
            if not used:
                missing.append(qualified)
    return missing


def test_every_public_function_is_used_in_src():
    assert sorted(set(unreferenced()) - set(ALLOWED)) == []
