import ast
from pathlib import Path

import vrhq


def test_all_exports_resolve():
    # a deletion must take its export with it
    missing = [name for name in vrhq.__all__ if not hasattr(vrhq, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(vrhq.__all__) == len(set(vrhq.__all__))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _foreign_private_reads(path):
    """(line, name) for every private name of another vrhq module that the
    module at `path` reads: `mod._x` on an imported vrhq module, or
    `from .mod import _x`."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "vrhq"
            if not inside:
                continue
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                # `from . import bounds` binds a module
                if node.module in (None, "vrhq"):
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "vrhq":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    # each private name has one owner; another module must use a public one
    package = Path(vrhq.__file__).parent
    found = {path.name: _foreign_private_reads(path)
             for path in sorted(package.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_private_name_scan_flags_both_forms(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text("from . import bounds\nfrom .homology import _pivots, __doc__\n"
                      "bounds._grid(1, 2)\nbounds.__name__\n", encoding="utf-8")
    assert _foreign_private_reads(source) == [(2, "_pivots"), (3, "bounds._grid")]
