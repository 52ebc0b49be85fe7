"""The package's import boundaries, read from the source with ast.

Only `cli` knows the JSON wire format, so only it imports `json`; `oracle`
is the tests' brute-force reference, so no module of the package imports it.
"""

import ast
from pathlib import Path

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


def modules():
    return sorted(SRC.glob("*.py"))


def test_modules_found():
    assert {"cli", "oracle", "bodies", "lifted", "rkhs"} <= {p.stem for p in modules()}


def test_only_cli_imports_json():
    offenders = [p.name for p in modules() if p.stem != "cli" and any(
        n == "json" or n.startswith("json.") for n in imported_modules(p)
    )]
    assert offenders == []


def test_no_module_imports_oracle():
    offenders = [p.name for p in modules() if p.stem != "oracle" and "zonalg.oracle" in imported_modules(p)]
    assert offenders == []


def test_imported_modules_sees_every_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "import json\nfrom json import loads\nfrom . import oracle\nfrom .oracle import polygon\n"
        "from zonalg import oracle as o\ndef f():\n    import zonalg.oracle\n"
    )
    names = imported_modules(path)
    assert {"json", "zonalg.oracle"} <= names
    assert "zonalg.oracle.polygon" in names and "json.loads" in names
