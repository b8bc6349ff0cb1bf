import ast
import inspect
import re
from pathlib import Path

import peiffer

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
TRACING = TESTS.parent / "perfbench" / "tracing.py"
PACKAGE = Path(peiffer.__file__).parent


def library_overview() -> str:
    """The README's "Library overview" section, without its fenced code."""
    section = README.read_text().split("## Library overview", 1)[1].split("\n## ", 1)[0]
    return re.sub(r"```.*?```", "", section, flags=re.DOTALL)


def test_readme_module_table_names_exactly_the_package_modules():
    table = re.findall(r"^\| `peiffer\.(\w+)` \|", README.read_text(), re.MULTILINE)
    package = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert sorted(table) == sorted(package)


def test_readme_library_overview_names_every_export():
    named = {word for span in re.findall(r"`([^`]*)`", library_overview()) for word in re.findall(r"\w+", span)}
    exports = {name for name, value in vars(peiffer).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(exports - named) == []


def test_readme_quick_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    namespace = {}
    exec(example, namespace)
    assert namespace["pp"].product.order == 12


def dotted(node) -> str | None:
    """a.b.c for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads, except on lines marked "# noqa: F401".

    import a.b counts as used when a.b is read, from a import b when b is.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = [
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if "# noqa: F401" not in lines[alias.lineno - 1]
    ]
    read = {dotted(node) for node in ast.walk(tree)}
    return [name for name in imported if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"}) + sorted(TESTS.glob("*.py"))
    unused = {path.name: names for path in modules if (names := unused_imports(path))}
    assert unused == {}


def wrapped_names() -> set[str]:
    """The package names perfbench/tracing.py wraps, read from its SPANS and COUNTED lists
    without importing it: "Class.method" names its class."""
    tree = ast.parse(TRACING.read_text())
    lists = [node.value for node in tree.body if isinstance(node, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id in ("SPANS", "COUNTED") for t in node.targets)]
    attrs = []
    for node in (n for value in lists for n in ast.walk(value)):
        if isinstance(node, ast.Tuple) and len(node.elts) == 3 and isinstance(node.elts[2], ast.Constant):
            attrs.append(node.elts[2].value)  # (span, module, attribute)
        elif isinstance(node, ast.comprehension):
            attrs += [e.value for e in node.iter.elts]  # [(span, module, f) for f in (...)]
    return {attr.split(".")[0] for attr in attrs}


def names_read(node) -> set[str]:
    """The names and attribute names node reads anywhere in it."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def test_every_definition_in_the_package_has_a_use():
    # a top-level function or class is read somewhere in src outside its own
    # definition, exported by peiffer, or wrapped by the benchmark's tracer
    wrapped = wrapped_names()
    assert {"lie_semidirect", "rref", "LieMap", "load_json"} <= wrapped
    statements = [node for path in sorted(set(PACKAGE.glob("*.py")) - {PACKAGE / "__init__.py"})
                  for node in ast.parse(path.read_text()).body]
    read_by = [(node, names_read(node)) for node in statements]
    unused = [
        node.name
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in vars(peiffer)
        and node.name not in wrapped
        and not any(node.name in names for other, names in read_by if other is not node)
    ]
    assert unused == []
