"""The library's public surface is what the pipeline runs.

Every public function and method in `src/cocyclelab` must be referenced
somewhere in `src` outside its own definition, so an API that only
tests call, or that nothing calls, shows up here.  So must every public
field: an annotated attribute of a class body (a dataclass field) or an
attribute a method sets on ``self``, so a stored value that nothing
reads shows up too.  References are matched by name (a bare name or an
attribute, and for a field an attribute read only), so a method or
field is reached when any attribute of that name is read; an
allowlisted name may also be reached that way (`main` by the module's
`__main__` guard), and is listed for its reason all the same.

A value derived with arguments is kept by one rule, `measure.kept`, so
no module may write a cache of its own (`hand_written_caches`).
"""
import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "cocyclelab"

# public names that nothing in src calls, each kept for a stated reason
ALLOWED = {
    "cli.main": "the console-script entry point, called by the installer's wrapper",
    "groups.DirectSumZGroup.generator_span":
        "the `generator_span` key of the sum-z presets and of the "
        "benchmark's copies of them; stored, and has no effect",
}


def public_definitions(tree: ast.Module, module: str):
    """(qualified name, name, definition node) of each public
    module-level function and each public method of a module-level
    class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield f"{module}.{node.name}.{item.name}", item.name, item


def public_fields(tree: ast.Module, module: str):
    """(qualified name, name, defining node) of each public field of a
    module-level class: an annotated name in the class body, or an
    attribute one of its methods sets on ``self``."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        fields = {}
        for item in node.body:
            if (isinstance(item, ast.AnnAssign)
                    and isinstance(item.target, ast.Name)):
                fields.setdefault(item.target.id, item)
            elif isinstance(item, ast.FunctionDef):
                for sub in ast.walk(item):
                    if (isinstance(sub, ast.Attribute)
                            and isinstance(sub.ctx, ast.Store)
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == "self"):
                        fields.setdefault(sub.attr, sub)
        for name, where in fields.items():
            if not name.startswith("_"):
                yield f"{module}.{node.name}.{name}", name, where


def references(tree: ast.Module, fields: bool = False):
    """(name, line) of every bare name and attribute in a module; with
    `fields`, of every attribute read only: a field is read as
    ``x.field``, and a bare name of its spelling is a local or a
    parameter (`generator_span`)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not fields:
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and not (
                fields and isinstance(node.ctx, ast.Store)):
            yield node.attr, node.lineno


def unreferenced(definitions, fields: bool = False) -> list[str]:
    """The qualified names among those `definitions(tree, module)`
    yields whose name nothing in src references outside the defining
    node."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    refs = {module: list(references(tree, fields))
            for module, tree in trees.items()}
    missing = []
    for module, tree in trees.items():
        for qualified, name, node in definitions(tree, module):
            inside = range(node.lineno, node.end_lineno + 1)
            used = any(found == name and not (where == module and line in inside)
                       for where, names in refs.items() for found, line in names)
            if not used:
                missing.append(qualified)
    return missing


def test_every_public_function_is_used_in_src():
    missing = unreferenced(public_definitions)
    assert sorted(set(missing) - set(ALLOWED)) == []


def test_every_public_field_is_read_in_src():
    missing = unreferenced(public_fields, fields=True)
    assert sorted(set(missing) - set(ALLOWED)) == []


def hand_written_caches(tree: ast.Module, module: str):
    """(module, line) of each per-object cache a module writes by hand:
    a `cached_property` that returns an empty dict, or an object's
    ``__dict__`` (or ``vars()``) reached outside `measure.kept`, the one
    memo rule for values with arguments."""
    rule = [range(node.lineno, node.end_lineno + 1) for node in tree.body
            if module == "measure" and isinstance(node, ast.FunctionDef)
            and node.name == "kept"]
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and any(
                getattr(d, "id", getattr(d, "attr", None)) == "cached_property"
                for d in node.decorator_list):
            body = [s for s in node.body if not (
                isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and ast.unparse(body[0].value) in ("{}", "dict()")):
                yield module, node.lineno
        reached = (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                   or isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "vars")
        if reached and not any(node.lineno in lines for lines in rule):
            yield module, node.lineno


def test_every_per_object_cache_is_kept():
    found = [place for path in sorted(SRC.glob("*.py"))
             for place in hand_written_caches(ast.parse(path.read_text()),
                                              path.stem)]
    assert found == []
