import argparse
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import etbell
from etbell.cli import _encode, build_parser, main
from etbell.lhv import event_stream, saturating_model
from etbell.numerics import matrix_from_json, matrix_to_json
from etbell.optics import dft_unitary

from conftest import dft_literal, random_unitary


def run_cli(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def run_json(argv):
    code, text = run_cli(argv)
    return code, json.loads(text)


def test_report_encoder_takes_only_fractions():
    # every report value is a plain JSON type or a Fraction, so a complex or
    # numpy object in a report is a defect and fails loudly
    from fractions import Fraction

    assert _encode(Fraction(-3, 4)) == "-3/4"
    for value in (0.5 - 2j, np.int64(1), np.bool_(True), np.zeros(2)):
        with pytest.raises(TypeError, match="cannot serialize"):
            _encode(value)


def test_mermin_quantum_default():
    code, report = run_json(["mermin-quantum"])
    assert code == 0
    assert report["passed"] is True
    assert abs(report["mu"] - 4.0) < 1e-12
    assert len(report["stabilizer_expectations"]) == 4
    names = [c["name"] for c in report["checks"]]
    assert "mu_equals_4" in names


@pytest.mark.parametrize("spec", ["YX", "Yx", "yX"])
def test_mermin_quantum_settings_spelling_keeps_every_check(spec):
    # the spec is read once, lowercased: an upper-case yx measures the
    # sigma_y/sigma_x pair and must be checked against 4 like yx
    code, report = run_json(["mermin-quantum", "--settings", spec])
    _, lower = run_json(["mermin-quantum", "--settings", "yx"])
    assert code == 0
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in lower["checks"]]
    assert "mu_equals_4" in [c["name"] for c in report["checks"]]
    assert report["settings"] == spec  # echoed as given


def test_mermin_quantum_all_x_settings():
    code, report = run_json(["mermin-quantum", "--settings", "xxx"])
    assert code == 0
    assert abs(report["mu"] - 2.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_mermin_quantum_mabk_settings_reach_the_quantum_bound(n):
    # the yx default reads mu = 0 at n = 5 and 9; the MABK offsets reach
    # 2^((n+1)/2) at every n, and "mabk" at n = 4 is no four-Pauli spec
    code, report = run_json(["mermin-quantum", "--n", str(n), "--settings", "mabk"])
    bound = 2.0 ** ((n + 1) / 2)
    assert code == 0 and report["passed"] is True
    assert abs(report["mu"] - bound) <= 1e-12
    assert report["checks"][-1] == {
        "name": "mu_reaches_quantum_bound", "value": report["mu"], "passed": True, "tolerance": 1e-12
    }


def test_mermin_quantum_mabk_check_compares_with_the_tolerance():
    # at n = 10 the correlators sum to 3.2e-13 above the bound
    code, report = run_json(["mermin-quantum", "--n", "10", "--settings", "MABK", "--tol", "1e-14"])
    assert code == 1
    assert report["settings"] == "MABK"
    assert {c["name"]: c["passed"] for c in report["checks"]} == {
        "mu_within_quantum_bound": False, "mu_reaches_quantum_bound": False
    }


def test_mermin_quantum_two_parties():
    code, report = run_json(["mermin-quantum", "--n", "2"])
    assert code == 0
    assert abs(report["mu"] - 2.0) < 1e-12
    assert report["classical_bound"] == "2"


def test_mermin_quantum_sweep(tmp_path):
    out = tmp_path / "sweep.csv"
    code, report = run_json(["mermin-quantum", "--sweep", "9", "--sweep-out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "phase,term1,term2,term3,term4,mu"
    assert len(lines) == 10
    first = [float(x) for x in lines[1].split(",")]
    assert abs(first[-1] - 4.0) < 1e-12


def test_lhv_table1():
    code, report = run_json(["lhv", "table1"])
    assert code == 0
    assert report["passed"] is True
    assert report["model_size"] == 512
    assert report["correlations"]["mu"] == "4"
    assert report["correlations"]["selection_rate"] == "1/4"
    assert report["rejection_fraction"] == "3/4"


@pytest.mark.parametrize(
    "selection,expected", [("dependent", "4"), ("independent", "2")]
)
def test_lhv_search(selection, expected):
    code, report = run_json(["lhv", "search", "--selection", selection])
    assert code == 0
    assert report["passed"] is True
    assert report["mu_max"] == expected


def test_lhv_scale():
    code, report = run_json(["lhv", "scale", "--target", "0"])
    assert code == 0
    assert report["achieved_mu"] == 0.0
    code, report = run_json(["lhv", "scale", "--target", "2.5"])
    assert code == 0
    assert abs(report["achieved_mu"] - 2.5) <= 1e-9
    code, _ = run_cli(["lhv", "scale", "--target", "5"])
    assert code == 1


def test_lhv_stream(tmp_path):
    out = tmp_path / "events.csv"
    code, report = run_json(
        ["lhv", "stream", "--trials", "20000", "--seed", "5", "--out", str(out)]
    )
    assert code == 0
    assert report["passed"] is True
    assert report["estimate"]["mu"] == 4.0
    lines = out.read_text().splitlines()
    assert lines[0] == "trial,party,setting,bin,sign,selected"
    assert len(lines) == 1 + 3 * 20000


def test_network_dft_matches_literal():
    code, report = run_json(["network", "dft", "--n", "3"])
    assert code == 0
    m = matrix_from_json(report["matrix"])
    assert np.abs(m - dft_literal(3)).max() < 1e-12


def test_network_analyzer_default_is_dft():
    code, report = run_json(["network", "analyzer"])
    assert code == 0
    m = matrix_from_json(report["matrix"])
    assert np.abs(m - dft_literal(3)).max() < 1e-12


def test_network_cascade():
    code, report = run_json(["network", "cascade", "--n", "3"])
    assert code == 0
    assert report["reflectivities"] == [1.0 / 3.0, 0.5]
    amps = [complex(re, im) for re, im in report["output_amplitudes"]]
    assert np.abs(np.abs(np.array(amps)) - 1 / math.sqrt(3)).max() < 1e-12


def test_network_decompose_and_verify(tmp_path):
    infile = tmp_path / "u.json"
    netfile = tmp_path / "net.json"
    u = random_unitary(5, seed=77)
    infile.write_text(json.dumps(matrix_to_json(u)))
    code, report = run_json(
        ["network", "decompose", "--in", str(infile), "--out", str(netfile)]
    )
    assert code == 0
    assert report["roundtrip_error"] <= 1e-9
    code, report = run_json(["network", "verify", "--in", str(netfile)])
    assert code == 0
    assert report["kind"] == "network"
    code, report = run_json(["network", "verify", "--in", str(infile)])
    assert code == 0
    assert report["kind"] == "matrix"


def test_network_decompose_rejects_non_unitary(tmp_path, capsys):
    infile = tmp_path / "bad.json"
    infile.write_text(
        json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0], [1, 0], [1, 0], [1, 0]]})
    )
    code, _ = run_cli(["network", "decompose", "--in", str(infile)])
    assert code == 1
    assert "not unitary" in capsys.readouterr().err


def test_source_state_and_filter():
    code, report = run_json(["source", "state"])
    assert code == 0
    assert len(report["state"]["amplitudes"]) == 4
    code, report = run_json(["source", "filter"])
    assert code == 0
    assert report["keep_probability"] == 0.5


def test_source_stream(tmp_path):
    out = tmp_path / "source.csv"
    code, report = run_json(
        ["source", "stream", "--trials", "30000", "--seed", "9", "--out", str(out)]
    )
    assert code == 0
    assert report["within_pair_agreement"] == 1.0
    assert abs(report["fourfold_rate"] - 0.5) < 0.02
    assert out.exists()


@pytest.mark.parametrize("model", ["quantum", "table1"])
def test_source_audit(model):
    code, report = run_json(
        ["source", "audit", "--model", model, "--trials", "4000", "--seed", "1"]
    )
    assert code == 0
    assert report["setting_dependent"] == (model == "table1")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["source", "audit", "--delta-t", "1"], "--delta-t"),
        (["source", "filter", "--delta-t", "1"], "--delta-t"),
        (["source", "filter", "--delta-t", "1.0", "--window", "2.0"], "--window"),
        (["source", "stream", "--window", "1"], "--window"),
        (["lhv", "table1", "--tol", "1"], "--tol"),
        (["mermin-quantum", "--seed", "1"], "--seed"),
        (["network", "dft", "--n", "3", "--seed", "1"], "--seed"),
    ],
    ids=["audit-delta-t", "filter-delta-t", "filter-window", "stream-window",
         "table1-tol", "mermin-seed", "dft-seed"],
)
def test_audit_has_no_pump_flags(capsys, argv, flag):
    # flags that no command reads are not accepted: the pump geometry never
    # entered the source model, the lhv and sampling commands compare no
    # float against a tolerance, and the deterministic commands draw nothing
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


#: Every leaf command's flags; an alias pair such as ``--n/--levels`` is one
#: flag. A flag belongs here only if its command reads it.
FLAG_TABLE = {
    "mermin-quantum": {"--n", "--settings", "--sweep", "--sweep-out", "--tol", "--out"},
    "lhv table1": {"--out"},
    "lhv search": {"--selection", "--out"},
    "lhv scale": {"--target", "--out"},
    "lhv stream": {"--target", "--trials", "--seed", "--out"},
    "network dft": {"--n/--levels", "--tol", "--out"},
    "network analyzer": {"--alpha", "--beta", "--gamma", "--phi2", "--phi3", "--tol", "--out"},
    "network cascade": {"--n/--levels", "--tol", "--out"},
    "network decompose": {"--in", "--tol", "--out"},
    "network verify": {"--in", "--tol", "--out"},
    "source state": {"--tol", "--out"},
    "source filter": {"--tol", "--out"},
    "source stream": {"--trials", "--seed", "--out"},
    "source audit": {"--model", "--trials", "--seed", "--out"},
}


def _leaf_flags(parser, path=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _leaf_flags(sub, (*path, name))
            return
    flags = {"/".join(a.option_strings) for a in parser._actions if a.dest != "help"}
    yield " ".join(path), flags


def test_flag_surface_is_pinned():
    leaves = dict(_leaf_flags(build_parser()))
    assert leaves == FLAG_TABLE
    assert sum(len(flags) for flags in leaves.values()) == 45


@pytest.mark.parametrize("leaf", [k for k, flags in FLAG_TABLE.items() if "--tol" in flags])
@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan"])
def test_every_tolerance_must_be_positive(capsys, leaf, tol):
    required = {"--n/--levels": ["--n", "3"], "--in": ["--in", "missing.json"]}
    argv = [*leaf.split(), f"--tol={tol}"]
    for flag in FLAG_TABLE[leaf] & required.keys():
        argv += required[flag]
    code, text = run_cli(argv)
    assert code == 1
    assert text == ""
    assert "error: tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("leaf", [k for k, flags in FLAG_TABLE.items() if "--trials" in flags])
def test_sampling_commands_need_a_trial(capsys, leaf):
    code, text = run_cli([*leaf.split(), "--trials", "0"])
    assert code == 1
    assert text == ""
    assert "error: need at least one trial" in capsys.readouterr().err


@pytest.mark.parametrize("leaf", [k for k, flags in FLAG_TABLE.items() if "--seed" in flags])
def test_sampling_commands_reject_a_negative_seed(capsys, leaf):
    code, text = run_cli([*leaf.split(), "--trials", "10", "--seed", "-1"])
    assert code == 1
    assert text == ""
    assert "error: seed must be a non-negative integer, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [(["--sweep", "-3"], "--sweep"), (["--sweep", "0"], "--sweep"), (["--sweep-out", "x.csv"], "--sweep-out")],
    ids=["negative", "zero", "out-without-sweep"],
)
def test_mermin_quantum_rejects_empty_sweeps(tmp_path, monkeypatch, capsys, argv, flag):
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["mermin-quantum", *argv])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", [2, 4, 5])
def test_mermin_quantum_sweep_needs_three_parties(tmp_path, monkeypatch, capsys, n):
    # the sweep rotates the first party of GHZ_3; at other n it wrote a
    # three-party sweep under an n-party report
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["mermin-quantum", "--n", str(n), "--sweep", "4"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == f"error: --sweep is a three-party sweep and needs --n 3, got --n {n}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("spec", ["xx", "xy", "yy", "xyx", "mabk"])
def test_mermin_quantum_sweep_needs_the_yx_settings(tmp_path, monkeypatch, capsys, spec):
    # the sweep rotates the sigma_y/sigma_x pair; under other settings it
    # wrote the yx sweep beside a report of the given settings
    monkeypatch.chdir(tmp_path)
    code, text = run_cli(["mermin-quantum", "--settings", spec, "--sweep", "2"])
    assert code == 1
    assert text == ""
    rule = "--sweep rotates the yx settings and needs --settings yx"
    assert capsys.readouterr().err == f"error: {rule}, got --settings {spec}\n"
    assert list(tmp_path.iterdir()) == []


def test_identical_seeds_identical_bytes(tmp_path):
    out = tmp_path / "events.csv"
    argv = ["lhv", "stream", "--trials", "5000", "--seed", "123", "--out", str(out)]
    code1, text1 = run_cli(argv)
    first_bytes = out.read_bytes()
    code2, text2 = run_cli(argv)
    assert code1 == code2 == 0
    assert text1 == text2
    assert out.read_bytes() == first_bytes


def test_bad_config_is_an_error():
    code, _ = run_cli(["lhv", "stream", "--trials", "0"])
    assert code == 1
    with pytest.raises(SystemExit):
        run_cli(["no-such-command"])


def test_json_report_written_to_file(tmp_path):
    out = tmp_path / "report.json"
    code, text = run_cli(["network", "dft", "--n", "4", "--out", str(out)])
    assert code == 0
    assert text == ""
    report = json.loads(out.read_text())
    assert report["passed"] is True


def _cli_writes(argv):
    def write(path, version):
        assert main([*argv(version), str(path)], stdout=io.StringIO()) == 0

    return write


def _events_csv(path, version):
    event_stream(saturating_model(), 50, seed=version).write_csv(path)


def _mesh(path, version):
    infile = path.parent / f"unitary{version}.json"
    infile.write_text(json.dumps(matrix_to_json(random_unitary(3 + version, seed=version))))
    run = ["network", "decompose", "--in", str(infile), "--out", str(path)]
    assert main(run, stdout=io.StringIO()) == 0


# writer -> write(path, version): two versions give two different files
OUT_WRITERS = {
    "events_csv": _events_csv,
    "report": _cli_writes(lambda k: ["network", "dft", "--n", str(2 + k), "--out"]),
    "sweep_csv": _cli_writes(lambda k: ["mermin-quantum", "--sweep", str(3 + k), "--sweep-out"]),
    "mesh": _mesh,
}


@pytest.mark.parametrize("writer", OUT_WRITERS)
def test_out_file_is_replaced_not_truncated(tmp_path, writer):
    write = OUT_WRITERS[writer]
    fresh = []
    for version in (0, 1):
        write(tmp_path / f"fresh{version}", version)
        fresh.append((tmp_path / f"fresh{version}").read_bytes())
    assert fresh[0] != fresh[1]
    path = tmp_path / "out"
    write(path, 0)
    # a hard link keeps naming the old file once the path is replaced
    os.link(path, tmp_path / "old")
    write(path, 1)
    assert path.read_bytes() == fresh[1]
    assert (tmp_path / "old").read_bytes() == fresh[0]
    # a symlink is written through, not replaced
    link = tmp_path / "link"
    link.symlink_to(path)
    write(link, 0)
    assert link.is_symlink()
    assert path.read_bytes() == fresh[0]


def test_version_is_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(root / "src") + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-m", "etbell.cli", "--version"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == f"etbell {etbell.__version__}\n"
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    assert etbell.__version__ == project["version"]


def test_cli_import_does_not_load_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": str(src) + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", "import etbell.cli, sys; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "chosen, expected",
    [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "2"}, "2"),
        ({"OMP_NUM_THREADS": "2"}, None),
        ({"MKL_NUM_THREADS": "2"}, None),
    ],
)
def test_import_defaults_to_one_blas_thread(chosen, expected):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(chosen, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-c", "import etbell, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == str(expected)


def test_zero_tolerance_is_rejected(capsys):
    code, text = run_cli(["network", "dft", "--n", "4", "--tol", "0"])
    assert code == 1
    assert text == ""
    assert "tolerance must be positive" in capsys.readouterr().err


def test_arithmetic_error_is_reported(monkeypatch, capsys):
    from etbell import states

    def imaginary(*args, **kwargs):
        raise ArithmeticError("expectation has imaginary part 0.001")

    monkeypatch.setattr(states, "mermin_n", imaginary)
    code, text = run_cli(["mermin-quantum"])
    assert code == 1
    assert text == ""
    assert "error: expectation has imaginary part" in capsys.readouterr().err


def test_memory_error_is_reported(monkeypatch, capsys):
    from etbell import cli

    def too_large(args, stdout):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(cli, "cmd_network_cascade", too_large)
    code, text = run_cli(["network", "cascade", "--n", "100000"])
    assert code == 1
    assert text == ""
    assert capsys.readouterr().err == "error: Unable to allocate 149. GiB for an array\n"


@pytest.mark.parametrize("target", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("command", [["lhv", "scale"], ["lhv", "stream", "--trials", "10"]])
def test_non_finite_target_is_an_error(capsys, command, target):
    code, text = run_cli([*command, f"--target={target}"])
    assert code == 1
    assert text == ""
    shown = str(float(target))
    assert capsys.readouterr().err == f"error: target must be a finite number in [0, 4], got {shown}\n"


def test_format_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["network", "dft", "--n", "4", "--format", "csv", "--out", str(tmp_path / "f")])


@pytest.mark.parametrize(
    "data, field",
    [
        ({"rows": 1, "cols": 1, "entries": [["1", "0"]]}, "entries"),
        ([[1.0, 0.0]], "matrix"),
        ({"n_modes": 2, "elements": [{"kind": "beam_splitter", "modes": [0, 1], "phase": 0.0}]}, "R"),
        ({"n_modes": 2, "elements": [], "residual_phases": [0.0]}, "residual_phases"),
        ({"n_modes": 2, "elements": [], "residual_phases": ["0", 0.0]}, "residual_phases"),
    ],
)
def test_network_verify_rejects_malformed_files(tmp_path, capsys, data, field):
    infile = tmp_path / "bad.json"
    infile.write_text(json.dumps(data))
    code, text = run_cli(["network", "verify", "--in", str(infile)])
    assert code == 1
    assert text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_mermin_quantum_seven_parties_meets_quantum_bound():
    code, report = run_json(["mermin-quantum", "--n", "7"])
    assert code == 0
    assert "classical_bound" not in report
    (check,) = report["checks"]
    assert check["name"] == "mu_within_quantum_bound" and check["passed"]
    assert abs(report["mu"] - 2.0**4) <= 1e-12


def test_mermin_quantum_rejects_parties_past_the_kernel_limit(monkeypatch, capsys):
    from etbell import states

    def unbuilt(n):  # the limit is checked before the 2^n amplitudes exist
        raise AssertionError(f"ghz_state({n}) was built")

    monkeypatch.setattr(states, "ghz_state", unbuilt)
    for n in (13, 30):
        code, text = run_cli(["mermin-quantum", "--n", str(n)])
        assert code == 1
        assert text == ""
        assert capsys.readouterr().err == (
            f"error: correlator tensor of {4**n} entries exceeds the limit of 16777216 ({n} parties)\n"
        )
