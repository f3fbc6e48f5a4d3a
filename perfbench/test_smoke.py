"""Smoke test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench/test_smoke.py
"""

import shutil
import subprocess
import sys

import pytest

import run
import workloads
from workloads import execute

TINY = workloads.Sizes(
    audit_trials=500,
    stream_trials=500,
    mermin_parties=(3, 4),
    unitary_modes=6,
    cascade_parties=3,
    cascade_modes=3,
    setup_repeats=1,
)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(workload, trace):
    result = run.run(workload, seed=3, seconds=0, trace=trace, sizes=TINY)
    assert result["failures"] == []
    section = run.spec()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in section]
    for m in section:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    assert result["environment"]["src_lines"] > 0


def test_gate_trips_on_corrupted_csv():
    sys.path.insert(0, str(workloads.SRC))
    ctx = workloads.new_context("stream", 5, TINY)
    ops = {op.name: op for op in workloads.stream_ops(ctx)}
    assert execute(ops["lhv stream --out"], ctx, in_process=True)[1] is None
    assert execute(ops["ingest lhv.csv"], ctx, in_process=True)[1] is None

    path = ctx.workdir / "lhv.csv"
    header, *rows = path.read_text().splitlines()
    flipped = []
    for row in rows:  # negate every sign: each three-party product changes sign
        cells = row.split(",")
        cells[4] = str(-int(cells[4]))
        flipped.append(",".join(cells))
    path.write_text("\n".join([header, *flipped]) + "\n")
    ctx.first_output.clear()  # isolate the estimate check from the determinism check

    _, err = execute(ops["ingest lhv.csv"], ctx, in_process=True)
    assert err is not None and "re-read estimate" in err


def test_exits_nonzero_without_the_program():
    bare = workloads.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    argv = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
