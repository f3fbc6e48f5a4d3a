"""``import etbell`` executes no submodule, and each CLI command executes
only the modules it uses. Those cases run in a fresh interpreter, because
this test process has long since executed every module."""

import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import etbell
from etbell.numerics import matrix_to_json
from etbell.optics import dft_unitary

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SUBMODULES = ["events", "lhv", "numerics", "optics", "source", "states"]

# A lazily bound module keeps a ModuleType subclass until its code runs.
EXECUTED = (
    "sorted(n[7:] for n, m in sys.modules.items()"
    " if n.startswith('etbell.') and type(m) is types.ModuleType)"
)


def _run(code, *args, cwd=None):
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd, capture_output=True, text=True,
        check=True,
    )
    return json.loads(proc.stdout)


def test_import_executes_no_submodule():
    got = _run(
        "import json, sys, types, etbell\n"
        "bound = sorted(n[7:] for n in sys.modules if n.startswith('etbell.'))\n"
        f"print(json.dumps([bound, {EXECUTED}, 'numpy' in sys.modules]))"
    )
    assert got == [SUBMODULES, [], False]


def test_every_public_name_resolves_to_its_defining_module():
    assert len(etbell.__all__) == 37
    listed = dir(etbell)
    for name in etbell.__all__:
        module = getattr(etbell, etbell._MODULE_OF[name])
        assert getattr(etbell, name) is getattr(module, name), name
        assert name in listed, name
    assert set(SUBMODULES) <= set(listed)
    with pytest.raises(AttributeError, match="no attribute 'PAULI_X'"):
        etbell.PAULI_X  # defined in states, not re-exported
    for name in ("StateVector", "tensor", "matmul", "bs_unitary", "measurement_basis"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(etbell, name)


# The n-qunit state waits on a command that Bell-tests it (ROADMAP item 3).
UNCALLED_EXPORTS = {"qunit_state"}


def _used_names(path):
    """Names a file loads, attributes it reads and strings it holds whole
    (``getattr`` targets); a definition, an import, a comment or a docstring
    alone is no use."""
    used = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used.add(node.value)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    files = [*(SRC / "etbell").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_used_names(f) for f in files if f.name != "__init__.py"))
    assert sorted(set(etbell.__all__) - used) == sorted(UNCALLED_EXPORTS)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from etbell import *", namespace)
    assert set(etbell.__all__) <= set(namespace)


COMMANDS = {
    "network decompose": (["network", "decompose", "--in", "u.json", "--out", "out.json"],
                          ["numerics", "optics"]),
    # a plain matrix file needs no network algebra
    "network verify matrix": (["network", "verify", "--in", "u.json"], ["numerics"]),
    "network verify mesh": (["network", "verify", "--in", "mesh.json"], ["numerics", "optics"]),
    "network cascade": (["network", "cascade", "--n", "4"], ["numerics", "optics"]),
    "lhv search": (["lhv", "search", "--selection", "dependent"], ["events", "lhv", "numerics"]),
    "lhv table1": (["lhv", "table1"], ["events", "lhv", "numerics"]),
    "mermin-quantum 9": (["mermin-quantum", "--n", "9"], ["events", "numerics", "states"]),
    # n <= 6 reports the enumerated classical bound from lhv
    "mermin-quantum 3": (["mermin-quantum", "--n", "3"], ["events", "lhv", "numerics", "states"]),
    "source state": (["source", "state"], ["events", "numerics", "source", "states"]),
    "source stream": (["source", "stream", "--trials", "100"], ["events", "numerics", "source"]),
    "source audit quantum": (["source", "audit", "--trials", "100"],
                             ["events", "numerics", "source", "states"]),
    "source audit table1": (["source", "audit", "--model", "table1", "--trials", "100"],
                            ["events", "lhv", "numerics", "source"]),
}


@pytest.mark.parametrize("argv, executed", COMMANDS.values(), ids=COMMANDS)
def test_command_executes_only_the_modules_it_uses(tmp_path, argv, executed):
    from etbell import cli

    (tmp_path / "u.json").write_text(json.dumps(matrix_to_json(dft_unitary(4))))
    decompose = ["network", "decompose", "--in", str(tmp_path / "u.json")]
    assert cli.main([*decompose, "--out", str(tmp_path / "mesh.json")], stdout=io.StringIO()) == 0
    got = _run(
        "import io, json, sys, types\n"
        "from etbell import cli\n"
        "status = cli.main(sys.argv[1:], stdout=io.StringIO())\n"
        f"print(json.dumps([status, {EXECUTED}]))",
        *argv,
        cwd=tmp_path,
    )
    assert got == [0, ["cli", *executed]]
