"""Static hygiene of the package, read from the source with ast: no unused
imports, and no function or method that nothing in the program calls."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ephemera"
PROGRAM = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imported_names(tree: ast.Module) -> dict:
    """Local name -> line of each import binding, __future__ aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _mentions(tree: ast.Module) -> tuple[Counter, Counter]:
    """Names read as a variable or imported, and names read as an attribute."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            attributes[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names, attributes


def _definitions(tree: ast.Module):
    """(qualified name, name, is a method) of each top-level function and
    non-dunder method."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, functions):
            yield node.name, node.name, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield f"{node.name}.{item.name}", item.name, True


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # re-exports are its purpose
            continue
        tree = _tree(path)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imported_names(tree).items() if name not in used]
    assert unused == []


def test_every_function_has_a_caller_in_the_program():
    # a mention anywhere in src/ or bench/ other than the definition counts,
    # the re-exports of ephemera/__init__.py included; tests do not count.
    # A method counts only when read as an attribute (x.name): a variable
    # that happens to share its name is no call
    names, attributes = Counter(), Counter()
    for path in PROGRAM:
        found_names, found_attributes = _mentions(_tree(path))
        names.update(found_names)
        attributes.update(found_attributes)
    uncalled = [f"{path.name}: {qualified}"
                for path in sorted(PACKAGE.glob("*.py"))
                for qualified, name, method in _definitions(_tree(path))
                if not attributes[name] and (method or not names[name])]
    assert uncalled == []
