"""``import etbell`` executes no submodule, the CLI parses its arguments
without numpy, and each CLI command executes only the modules it uses.
Those cases run in a fresh interpreter, because this test process has long
since executed every module."""

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
SUBMODULES = ["events", "lhv", "mermin", "numerics", "optics", "source", "states"]

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
    return json.loads(proc.stdout.splitlines()[-1])  # the code run may print before it


def test_import_executes_no_submodule():
    got = _run(
        "import json, sys, types, etbell\n"
        "bound = sorted(n[7:] for n in sys.modules if n.startswith('etbell.'))\n"
        f"print(json.dumps([bound, {EXECUTED}, 'numpy' in sys.modules]))"
    )
    assert got == [SUBMODULES, [], False]


def test_cli_import_loads_no_numpy():
    got = _run(
        "import json, sys, types, etbell.cli\n"
        f"print(json.dumps(['numpy' in sys.modules, {EXECUTED}]))"
    )
    assert got == [False, ["cli"]]


# What argparse answers alone: the version, help texts and usage errors.
FRONT_END = {
    "--version": (["--version"], 0),
    "--help": (["--help"], 0),
    "lhv --help": (["lhv", "--help"], 0),
    "unknown flag": (["lhv", "table1", "--bogus"], 2),
}


@pytest.mark.parametrize("argv, status", FRONT_END.values(), ids=FRONT_END)
def test_front_end_exits_before_numpy_or_any_submodule(argv, status):
    # ``python -m etbell.cli``, with the exit caught to inspect the process
    got = _run(
        "import json, runpy, sys, types\n"
        "try:\n"
        "    runpy.run_module('etbell.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    print(json.dumps([exc.code, 'numpy' in sys.modules, {EXECUTED}]))",
        *argv,
    )
    assert got == [status, False, []]


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


# Public names that no code outside the tests calls yet, each with the
# ROADMAP item whose code is planned to call it. ``correlators`` is the
# kernel's array form; the package's own Mermin paths take the kernel's flat
# values without numpy.
UNCALLED = {
    "correlators": "item 4: the n-qunit Bell test reads whole correlator tables",
    "qunit_state": "item 4: the n-qunit Bell test",
    "analyzer_matrix": "item 4: the n-qunit analyzers",
    "ensemble_from_json": "item 3: witnesses the CLI can run",
    "state_from_json": "item 3: recorded files the CLI can audit",
}


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


def _public_definitions(path):
    """The public module-level functions in ``path`` and the public methods
    of its public classes."""
    found = set()
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            found |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
    return {name for name in found if not name.startswith("_")}


def test_every_public_name_has_a_caller_outside_the_tests():
    # a second entry that only the tests reach is surface that buys nothing
    files = [*(SRC / "etbell").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    used = set().union(*(_used_names(f) for f in files if f.name != "__init__.py"))
    public = set(etbell.__all__).union(*map(_public_definitions, (SRC / "etbell").glob("*.py")))
    assert sorted(public - used) == sorted(UNCALLED)


# Defaulted parameters that callers outside the tests leave unset, each
# with the ROADMAP item whose code is planned to set it.
UNSET_DEFAULTS = {
    "read_csv.bin_labels": "item 3: the audit of recorded streams reads them with known labels",
    "prepare_postselected.emission_amplitudes": "item 5: multi-bin emission",
    "prepare_postselected.input_mode": "item 5: multi-bin emission",
    "sample_measurement_events.settings": "item 2: settings that reach the quantum bound",
}


def _defaulted_parameters(path):
    """``{function name: [(parameter, position or None), ...]}`` for the
    defaulted parameters of each public function and public-class method
    in ``path``; a position counts the arguments a call passes, so it skips
    ``self`` and ``cls``, and a keyword-only parameter has none."""
    found = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            defs = [(f, 1) for f in node.body if isinstance(f, ast.FunctionDef)]  # no static methods
        else:
            continue
        for f, skip in defs:
            if f.name.startswith("_"):
                continue
            positional = [*f.args.posonlyargs, *f.args.args]
            first = len(positional) - len(f.args.defaults)
            params = [(a.arg, k - skip) for k, a in enumerate(positional) if k >= first]
            params += [(a.arg, None) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults) if d]
            found.setdefault(f.name, []).extend(params)
    return found


def test_every_defaulted_parameter_is_set_by_a_caller_outside_the_tests():
    # a default that no caller changes is a knob nobody turns; counts
    # keyword, positional, *args and **kwargs arguments of calls by name
    files = [*(SRC / "etbell").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
             *(ROOT / "perfbench").glob("*.py")]
    calls = {}
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = getattr(node.func, "id", None) or node.func.attr
                calls.setdefault(name, []).append(node)
    unset = []
    for path in (SRC / "etbell").glob("*.py"):
        for name, params in _defaulted_parameters(path).items():
            for param, position in params if name in calls else ():
                if not any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or position is not None
                    and (position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))
                    for call in calls[name]
                ):
                    unset.append(f"{name}.{param}")
    assert sorted(unset) == sorted(UNSET_DEFAULTS)


def test_events_codec_imports_neither_csv_nor_re():
    # the events CSV has one strict form; a csv dialect or regex reader is a second one
    for name in ("events.py", "_csvbody.py"):
        tree = ast.parse((SRC / "etbell" / name).read_text(), name)
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not {m.split(".")[0] for m in imported if m} & {"csv", "re"}, name


def test_lhv_imports_no_numpy_at_module_level():
    # the exact local-model paths are plain Python; event_stream imports numpy itself
    tree = ast.parse((SRC / "etbell" / "lhv.py").read_text(), "lhv.py")
    executed = [node for stmt in tree.body if not isinstance(stmt, ast.FunctionDef) for node in ast.walk(stmt)]
    imported = {alias.name for node in executed if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in executed if isinstance(node, ast.ImportFrom)}
    assert "numpy" not in {m.split(".")[0] for m in imported if m}


def test_lhv_floats_stay_inside_event_stream():
    # weights and every value derived from them are Fractions; only the
    # Monte-Carlo draws of event_stream need float probabilities
    tree = ast.parse((SRC / "etbell" / "lhv.py").read_text(), "lhv.py")
    (stream,) = [node for node in tree.body if getattr(node, "name", None) == "event_stream"]
    inside = set(map(id, ast.walk(stream)))
    calls = {"float", "math.fsum", "math.isfinite", "fsum", "isfinite"}
    floats = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if id(node) not in inside
        and (
            isinstance(node, ast.Constant) and isinstance(node.value, float)
            or isinstance(node, ast.Call) and ast.unparse(node.func) in calls
        )
    ]
    assert floats == []


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from etbell import *", namespace)
    assert set(etbell.__all__) <= set(namespace)


COMMANDS = {
    "network dft": (["network", "dft", "--n", "4"], ["numerics", "optics"]),
    "network analyzer": (["network", "analyzer"], ["numerics", "optics"]),
    "network decompose": (["network", "decompose", "--in", "u.json", "--out", "out.json"],
                          ["numerics", "optics"]),
    # a plain matrix file needs no network algebra
    "network verify matrix": (["network", "verify", "--in", "u.json"], ["numerics"]),
    "network verify mesh": (["network", "verify", "--in", "mesh.json"], ["numerics", "optics"]),
    "network cascade": (["network", "cascade", "--n", "4"], ["numerics", "optics"]),
    # the exact local-model commands need no event tables
    "lhv search": (["lhv", "search", "--selection", "dependent"], ["lhv", "mermin", "numerics"]),
    "lhv table1": (["lhv", "table1"], ["lhv", "mermin", "numerics"]),
    "lhv scale": (["lhv", "scale", "--target", "3"], ["lhv", "mermin", "numerics"]),
    "lhv stream": (["lhv", "stream", "--trials", "100"], ["events", "lhv", "mermin", "numerics"]),
    # the quantum Mermin test needs neither the event tables nor the local models,
    # at n <= 6 either, where the report carries the classical bound
    "mermin-quantum 9": (["mermin-quantum", "--n", "9"], ["mermin", "numerics", "states"]),
    "mermin-quantum 3": (["mermin-quantum", "--n", "3"], ["mermin", "numerics", "states"]),
    "mermin-quantum sweep": (["mermin-quantum", "--sweep", "4"], ["mermin", "numerics", "states"]),
    "source state": (["source", "state"], ["events", "mermin", "numerics", "source", "states"]),
    "source filter": (["source", "filter"], ["events", "mermin", "numerics", "source", "states"]),
    "source stream": (["source", "stream", "--trials", "100"],
                      ["events", "mermin", "numerics", "source"]),
    "source audit quantum": (["source", "audit", "--trials", "100"],
                             ["events", "mermin", "numerics", "source", "states"]),
    "source audit table1": (["source", "audit", "--model", "table1", "--trials", "100"],
                            ["events", "lhv", "mermin", "numerics", "source"]),
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


@pytest.mark.parametrize("n", range(2, 13))
def test_mermin_quantum_runs_without_numpy(n):
    # the GHZ state on its support, the pair-sum correlators and the exact
    # classical bound are plain Python
    got = _run(
        "import io, json, sys\n"
        "from etbell import cli\n"
        "out = io.StringIO()\n"
        "status = cli.main(sys.argv[1:], stdout=out)\n"
        "print(json.dumps([status, 'numpy' in sys.modules, json.loads(out.getvalue())['n_parties']]))",
        "mermin-quantum", "--n", str(n),
    )
    assert got == [0, False, n]


def test_postselect_coincident_on_ghz_loads_no_numpy():
    # the diagonal states are built and renormalized on their support in plain Python
    got = _run(
        "import json, sys\n"
        "from etbell.states import ghz_state, postselect_coincident\n"
        "state, weight = postselect_coincident(ghz_state(5))\n"
        "print(json.dumps([len(state.support), weight, 'numpy' in sys.modules]))"
    )
    assert got == [2, 0.9999999999999998, False]


def test_mermin_quantum_sweep_runs_without_numpy(tmp_path):
    # the rotated settings are tuples of Python complex numbers
    got = _run(
        "import io, json, sys\n"
        "from etbell import cli\n"
        "out = io.StringIO()\n"
        "status = cli.main(sys.argv[1:], stdout=out)\n"
        "print(json.dumps([status, 'numpy' in sys.modules, json.loads(out.getvalue())['sweep_csv']]))",
        "mermin-quantum", "--sweep", "36", "--sweep-out", "sweep.csv",
        cwd=tmp_path,
    )
    assert got == [0, False, "sweep.csv"]
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 37


LHV_EXACT = {
    "table1": ["lhv", "table1"],
    "search dependent": ["lhv", "search", "--selection", "dependent"],
    "search independent": ["lhv", "search", "--selection", "independent"],
    "scale": ["lhv", "scale", "--target", "2.828427"],
}


@pytest.mark.parametrize("argv", LHV_EXACT.values(), ids=LHV_EXACT)
def test_lhv_exact_commands_run_without_numpy(argv):
    # the strategies are int tuples and the weights Fractions
    got = _run(
        "import io, json, sys\n"
        "from etbell import cli\n"
        "out = io.StringIO()\n"
        "status = cli.main(sys.argv[1:], stdout=out)\n"
        "print(json.dumps([status, 'numpy' in sys.modules, json.loads(out.getvalue())['passed']]))",
        *argv,
    )
    assert got == [0, False, True]


# The numpy-free commands, run as ``python -m etbell.cli``: ``dataclasses``
# imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``), a large share
# of their start-up, so their records are named tuples or plain classes.
NUMPY_FREE = {
    "mermin-quantum 3": ["mermin-quantum", "--n", "3"],
    "mermin-quantum 5 mabk": ["mermin-quantum", "--n", "5", "--settings", "mabk"],
    "lhv table1": ["lhv", "table1"],
    "lhv search dependent": ["lhv", "search", "--selection", "dependent"],
    "lhv scale": ["lhv", "scale", "--target", "2.828427"],
}
LOADED = "[m in sys.modules for m in ('numpy', 'dataclasses', 'inspect')]"


@pytest.fixture(scope="module")
def bare_loads_inspect():
    """Whether a bare interpreter (site and its .pth files) already loads inspect."""
    return _run("import json, sys\nprint(json.dumps('inspect' in sys.modules))")


@pytest.mark.parametrize("argv", NUMPY_FREE.values(), ids=NUMPY_FREE)
def test_numpy_free_command_loads_neither_numpy_nor_dataclasses(bare_loads_inspect, argv):
    got = _run(
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('etbell.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        f"    print(json.dumps([exc.code, {LOADED}]))",
        *argv,
    )
    assert got == [0, [False, False, bare_loads_inspect]]


# The numpy commands that stream, audit or filter events or states: numpy
# loads ``inspect`` but not ``dataclasses``, and their records are named
# tuples or plain classes too.
EVENT_COMMANDS = {
    "lhv stream": ["lhv", "stream", "--trials", "1000", "--out", "lhv.csv"],
    "source stream": ["source", "stream", "--trials", "1000", "--out", "source.csv"],
    "source audit quantum": ["source", "audit", "--model", "quantum", "--trials", "1000"],
    "source audit table1": ["source", "audit", "--model", "table1", "--trials", "1000"],
    "source filter": ["source", "filter"],
    "source state": ["source", "state"],
}


@pytest.mark.parametrize("argv", EVENT_COMMANDS.values(), ids=EVENT_COMMANDS)
def test_event_command_loads_no_dataclasses(tmp_path, argv):
    got = _run(
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('etbell.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(json.dumps([exc.code, 'dataclasses' in sys.modules]))",
        *argv,
        cwd=tmp_path,
    )
    assert got == [0, False]
