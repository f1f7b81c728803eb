"""Static hygiene of the package, read from the source with ast: no unused
imports, no function or method that nothing in the program calls, no
indented JSON encoding outside `catalog show`, and no tracer target that
names a function the program no longer has."""

import ast
import importlib
import inspect
import types
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
    """Names read as a variable or imported, and names read as an attribute;
    a name that is only stored to is not read."""
    names, attributes = Counter(), Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def test_no_indented_json_encoding_outside_catalog_show():
    # any indent sends json.dump(s) to the pure-Python encoder, which cost a
    # classify round a third of its time; report bundles are written compact.
    # Only cli.cmd_catalog indents, to print a shipped spec file as stored
    indented = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _tree(path)
        allowed = {id(node) for top in tree.body
                   if path.name == "cli.py" and getattr(top, "name", None) == "cmd_catalog"
                   for node in ast.walk(top)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("dump", "dumps") and any(k.arg == "indent" for k in node.keywords):
                indented.append(f"{path.name}:{node.lineno}")
    assert indented == []


def _bench_module(name: str) -> types.ModuleType:
    """A bench/ module run from its source, with no bytecode cache written."""
    path = ROOT / "bench" / f"{name}.py"
    module = types.ModuleType(f"bench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_bench_trace_targets_resolve():
    # bench/run.py --trace wraps each target where its callers look it up;
    # a renamed or deleted function would otherwise break only traced runs
    targets = _bench_module("tracing").TARGETS
    assert targets
    missing = []
    for name, module, attr in targets:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            fn = vars(getattr(owner, cls_name, object)).get(method)
        else:
            fn = getattr(owner, attr, None)
        if not inspect.isfunction(fn):
            missing.append(name)
    assert missing == []
    # tracing._level_cells binds the resolution argument of every call
    level_components = importlib.import_module("ephemera.fiberlab").level_components
    assert "resolution" in inspect.signature(level_components).parameters


def _assigned_names(tree: ast.Module):
    """(name, line) of each module-level assignment target, dunders aside."""
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else [])
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name) and not name.id.startswith("__"):
                    yield name.id, node.lineno


def test_every_module_level_name_is_read_in_the_program():
    # a read anywhere in src/ or bench/ counts: a name loaded as a variable,
    # read as an attribute or imported; the assignment itself stores, and
    # tests do not count, so a constant that only tests read lives with them
    read = Counter()
    for path in PROGRAM:
        names, attributes = _mentions(_tree(path))
        read += names + attributes
    unread = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in _assigned_names(_tree(path)) if not read[name]]
    assert unread == []
