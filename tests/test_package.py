import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vrhq


def test_all_exports_resolve():
    # a deletion must take its export with it; exports and layer modules
    # resolve on first access
    missing = [name for name in vrhq.__all__ if not hasattr(vrhq, name)]
    assert missing == []
    namespace = {}
    exec("from vrhq import *", namespace)
    assert len(vrhq.__all__) == 33
    assert {name for name in namespace if name != "__builtins__"} == set(vrhq.__all__)
    assert set(vrhq.__all__) <= set(dir(vrhq))
    with pytest.raises(AttributeError):
        vrhq.no_such_name
    assert getattr(vrhq, "homology") is sys.modules["vrhq.homology"]
    assert vrhq.ExactRatio is sys.modules["vrhq.bounds"].ExactRatio


def test_all_has_no_duplicates():
    assert len(vrhq.__all__) == len(set(vrhq.__all__))


# Runs `vrhq ARGV` in a fresh interpreter and prints the modules that the
# import of vrhq.cli and the run added, whatever `site` loaded before.
LAUNCH = """
import contextlib, io, json, sys
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    from vrhq.cli import main
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""
LAUNCHED = {"vrhq", "vrhq.cli", "vrhq.errors", "vrhq.render"}
BOUNDS = LAUNCHED | {"vrhq.bounds", "vrhq.hypercube", "vrhq.bitops"}
COMPLEXES = LAUNCHED | {"vrhq.complexes", "vrhq.hypercube", "vrhq.bitops"}
LAUNCHES = [
    (["--version"], LAUNCHED),
    (["bound", "--n", "5", "--r", "2"], BOUNDS),
    (["table", "--n-max", "4", "--format", "csv"], BOUNDS),
    (["counterexamples", "--n-max", "8", "--format", "md"], BOUNDS),
    (["gamma-t", "--n", "4", "--r", "2"],
     LAUNCHED | {"vrhq.domination", "vrhq.hypercube", "vrhq.bitops"}),
    (["complex", "--n", "3", "--r", "1", "--max-dim", "2", "--out", "k.txt"], COMPLEXES),
    (["homology", "--n", "4", "--r", "2", "--up-to", "3", "--format", "csv"],
     COMPLEXES | {"vrhq.homology"}),
    (["witness", "--n", "3", "--r", "1", "--vertices", "0,7,3,4"], COMPLEXES),
]


@pytest.mark.parametrize("argv, layers", LAUNCHES,
                         ids=[argv[0].lstrip("-") for argv, _ in LAUNCHES])
def test_a_launch_imports_only_what_its_subcommand_runs(argv, layers, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(vrhq.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-c", LAUNCH, *argv], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=60, check=True)
    loaded = set(json.loads(child.stdout))
    assert {name for name in loaded if name.startswith("vrhq")} == layers
    # dataclasses alone pulls in inspect, ast, dis and tokenize
    assert loaded.isdisjoint({"dataclasses", "inspect", "datetime"})
    assert ("csv" in loaded) == ("csv" in argv)


def test_both_launch_paths_reach_cli_entry():
    # cli.entry freezes the heap before shutdown; a launch path that called
    # main() itself would pay for the shutdown collection again
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["scripts"] == {"vrhq": "vrhq.cli:entry"}
    tree = ast.parse((Path(vrhq.__file__).parent / "__main__.py").read_text(encoding="utf-8"))
    imports = [(node.module, node.level, [a.name for a in node.names])
               for node in tree.body if isinstance(node, ast.ImportFrom)]
    calls = [node.value.func.id for node in tree.body
             if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Name)]
    assert imports == [("cli", 1, ["entry"])]
    assert calls == ["entry"]


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


# ROADMAP item 2 (the connectivity sandwich: a proven upper bound next to
# every lower bound, and `witness` testing its cycle) gives these their
# package callers; until then they are exported without one
AWAITING_CALLERS = {"fundamental_cycle", "cycle_is_gf2_boundary", "consistency_check_2r"}


def _package_reads(package):
    """Every name the modules of `package` read, as a name or an attribute,
    outside __init__.py and outside the top-level definition of that name."""
    names = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name is not None and name != own:
                    names.add(name)
    return names


def test_every_export_has_a_package_caller():
    # an export only tests call belongs in tests/oracles.py
    uncalled = set(vrhq.__all__) - _package_reads(Path(vrhq.__file__).parent)
    assert sorted(uncalled - AWAITING_CALLERS) == []


def test_caller_scan_skips_own_definition_and_init(tmp_path):
    (tmp_path / "__init__.py").write_text("from .mod import a, b\na()\nb()\n", encoding="utf-8")
    (tmp_path / "mod.py").write_text("def a():\n    return a()\n\n\ndef b():\n    return a\n",
                                     encoding="utf-8")
    reads = _package_reads(tmp_path)
    assert "a" in reads and "b" not in reads
