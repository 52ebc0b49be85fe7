"""The package's import boundaries, read from the source with ast.

The package is layered, lowest first: `errors`; `bodies`, `generators` and
`oracle`; `lifted` and `inequalities`; `rkhs`; `cli`; `__init__` and
`__main__`.  A module imports only from layers below its own, so `oracle`
imports only `errors` and shares no code with what it checks.  Only `cli`
knows the JSON wire format, so only it imports `json`; `oracle` is the
tests' brute-force reference, so no module of the package imports it.
`generators.draw_atoms` is the package's one random draw, so no module
reaches numpy's random generators.  `cli.run` is the one writer of command
output, so no other function names `stdout`, and `print` writes only to
`sys.stderr`.
"""

import ast
from pathlib import Path

import pytest

import zonalg

SRC = Path(zonalg.__file__).parent


def imported_modules(path: Path) -> set[str]:
    """Every module an import statement anywhere in the file names, as a dotted name."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the package: `from . import x`, `from .x import y`
                base = ".".join(filter(None, ["zonalg", base]))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


# The package's layers, lowest first.
LAYERS = [
    {"errors"}, {"bodies", "generators", "oracle"}, {"lifted", "inequalities"}, {"rkhs"}, {"cli"}, {"__init__", "__main__"}
]
LAYER = {stem: level for level, layer in enumerate(LAYERS) for stem in layer}


def package_imports(path: Path) -> set[str]:
    """The stem of every package module the file imports from; "__init__" for the package itself."""
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["zonalg", node.module])) if node.level else node.module or ""
            # `from zonalg import x` takes module x, or a name that __init__ binds
            dotted += [f"{base}.{alias.name}" if base == "zonalg" else base for alias in node.names]
    parts = [name.split(".") for name in dotted]
    return {p[1] if len(p) > 1 and p[1] in LAYER else "__init__" for p in parts if p[0] == "zonalg"}


# Names through which a module would reach a random generator besides draw_atoms.
RANDOM_NAMES = {"random", "default_rng", "SeedSequence"}


def random_names(path: Path) -> set[str]:
    """Every RANDOM_NAMES name the file imports, reads or reads an attribute by."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    for module in imported_modules(path):
        names.update(module.split("."))
    return names & RANDOM_NAMES


def stdout_writers(path: Path) -> set[str]:
    """Every function (or "<module>") that names `stdout` or calls print without file=sys.stderr."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            names_stdout = (
                isinstance(child, ast.Name) and child.id == "stdout"
                or isinstance(child, ast.Attribute) and child.attr == "stdout"
                or isinstance(child, ast.alias) and child.name == "stdout"
            )
            prints = (
                isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "print"
                and not any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in child.keywords)
            )
            if names_stdout or prints:
                found.add(scope)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope)

    visit(ast.parse(path.read_text()), "<module>")
    return found


def modules():
    return sorted(SRC.glob("*.py"))


def test_modules_found():
    assert {"cli", "oracle", "bodies", "lifted", "rkhs"} <= {p.stem for p in modules()}


def test_every_module_has_a_layer():
    assert {p.stem for p in modules()} == set(LAYER)


def test_modules_import_only_from_lower_layers():
    upward = [f"{p.stem} -> {t}" for p in modules() for t in sorted(package_imports(p)) if LAYER[t] >= LAYER[p.stem]]
    assert upward == []


def test_only_cli_imports_json():
    offenders = [p.name for p in modules() if p.stem != "cli" and any(
        n == "json" or n.startswith("json.") for n in imported_modules(p)
    )]
    assert offenders == []


def test_no_module_imports_oracle():
    offenders = [p.name for p in modules() if p.stem != "oracle" and "zonalg.oracle" in imported_modules(p)]
    assert offenders == []


def test_no_module_uses_a_random_generator():
    offenders = {p.name: random_names(p) for p in modules() if random_names(p)}
    assert offenders == {}


def test_only_cli_run_writes_stdout():
    writers = {p.stem: stdout_writers(p) for p in modules() if stdout_writers(p)}
    assert writers == {"cli": {"run"}}


@pytest.mark.parametrize(
    "source,writers",
    [
        ("import sys\nsys.stdout.write('x')\n", {"<module>"}),
        ("from sys import stdout\n", {"<module>"}),
        ("import sys\ndef f():\n    def g():\n        return sys.stdout\n", {"g"}),
        ("def f():\n    print('x')\n", {"f"}),
        ("import sys\nclass C:\n    def m(self):\n        print('x', file=sys.stdout)\n", {"m"}),
        ("def f(fh):\n    print('x', file=fh)\n", {"f"}),
        ("import sys\ndef f():\n    print('x', file=sys.stderr)\n", set()),
    ],
)
def test_stdout_writers_sees_every_form(tmp_path, source, writers):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert stdout_writers(path) == writers


@pytest.mark.parametrize(
    "source",
    [
        "import numpy as np\nrng = np.random.default_rng(1)\n",
        "import numpy.random\n",
        "from numpy import random\n",
        "from numpy.random import default_rng\n",
        "import numpy as np\ns = np.random.SeedSequence([1, 2])\n",
        "def f(numpy):\n    return numpy.random.Generator\n",
        "import random\n",
    ],
)
def test_random_names_sees_every_form(tmp_path, source):
    path = tmp_path / "m.py"
    path.write_text(source)
    assert random_names(path)


def test_imported_modules_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import json\nfrom json import loads\nfrom . import oracle\nfrom .oracle import polygon\n"
        "from zonalg import oracle as o\ndef f():\n    import zonalg.oracle\n"
    )
    names = imported_modules(path)
    assert {"json", "zonalg.oracle"} <= names
    assert "zonalg.oracle.polygon" in names and "json.loads" in names


def test_package_imports_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import json\nfrom . import bodies, errors\nfrom .lifted import add\nfrom zonalg.rkhs import gram\n"
        "def f():\n    import zonalg.cli\n    from zonalg import hyperbolic_witness\n"
    )
    assert package_imports(path) == {"bodies", "errors", "lifted", "rkhs", "cli", "__init__"}
    path.write_text("import zonalg\n")
    assert package_imports(path) == {"__init__"}
