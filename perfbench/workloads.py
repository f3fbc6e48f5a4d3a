"""Workload definitions: the operations of one pass and their correctness gates.

An operation is either one ``etbell`` CLI process (``python -m etbell.cli``
with ``src`` on ``PYTHONPATH``) or one in-process call into the public API.
Every operation returns its output bytes; the gate checks them against the
operation's headline values and against the bytes of the first run of the
same command (identical configurations must give byte-identical output).

Why these workloads:

* ``verify`` -- the paper's separation checks as short CLI runs. Interpreter
  start and ``import etbell`` (mostly ``scipy.stats``) dominate, then the
  exact ``Fraction`` paths of ``lhv``. The CSV codec and the dense-``kron``
  correlator barely run.
* ``stream`` -- seeded event streams written by the CLI (``--out``) and read
  back in-process. The ``events`` CSV codec dominates both sides; write and
  read are timed as separate operations.
* ``quantum`` -- ``mermin-quantum`` for n = 3..9 (dense ``kron`` correlator,
  4^n classical-bound enumeration for n <= 6), a 64-mode Reck mesh and the
  postselected cascade preparation. Neither runs in ``stream``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
CLI_TIMEOUT_S = 150


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what the benchmark measures."""

    audit_trials: int = 20_000
    stream_trials: int = 100_000
    mermin_parties: tuple[int, ...] = tuple(range(3, 10))
    unitary_modes: int = 64
    cascade_parties: int = 6
    cascade_modes: int = 6
    setup_repeats: int = 3


FULL = Sizes()


class GateError(Exception):
    """An operation's output failed a correctness check."""


def cli_env() -> dict:
    """The caller's environment with ``src`` on ``PYTHONPATH``.

    Thread-count variables are passed through exactly as found: small dense
    BLAS calls under default threading are part of what is measured.
    """
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


@dataclass
class Op:
    """One operation. ``argv`` marks a CLI operation; ``call`` an in-process one.

    ``check(output, ctx)`` raises :class:`GateError` on a wrong result.
    """

    name: str
    argv: tuple[str, ...] | None = None
    call: Callable[["Context"], bytes] | None = None
    check: Callable[[bytes, "Context"], None] = lambda out, ctx: None
    trials: int = 0  # trials this operation exports or ingests (stream only)
    kind: str = ""  # "export" / "ingest" for the stream throughput metrics


@dataclass
class Context:
    """Per-run state shared by the operations of a workload."""

    workload: str
    seed: int
    sizes: Sizes
    workdir: Path
    env: dict = field(default_factory=cli_env)
    first_output: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)


# --- running one operation ---------------------------------------------------


def run_cli(argv, ctx: Context) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "etbell.cli", *argv],
        cwd=ctx.workdir,
        env=ctx.env,
        capture_output=True,
        timeout=CLI_TIMEOUT_S,
    )
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        raise GateError(f"exit status {proc.returncode}: {' '.join(tail)}")
    return proc.stdout


def run_cli_in_process(argv, ctx: Context) -> bytes:
    """Replay a CLI operation through ``etbell.cli.main`` in this process."""
    import io

    from etbell import cli

    buf = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ctx.workdir)
    try:
        status = cli.main(list(argv), stdout=buf)
    finally:
        os.chdir(cwd)
    if status != 0:
        raise GateError(f"exit status {status}")
    return buf.getvalue().encode()


def execute(op: Op, ctx: Context, in_process: bool) -> tuple[float, str | None]:
    """Run and gate one operation; return (wall seconds, failure or None)."""
    t0 = time.perf_counter()
    try:
        if op.call is not None:
            out = op.call(ctx)
        elif in_process:
            out = run_cli_in_process(op.argv, ctx)
        else:
            out = run_cli(op.argv, ctx)
    except Exception as exc:  # any error of the program under test is a failed operation
        return time.perf_counter() - t0, f"{op.name}: {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    try:
        first = ctx.first_output.setdefault(op.name, out)
        if out != first:
            raise GateError("output differs from the first run of the same command")
        op.check(out, ctx)
    except (GateError, ValueError, KeyError, TypeError) as exc:
        return wall, f"{op.name}: {type(exc).__name__}: {exc}"
    return wall, None


# --- gates ------------------------------------------------------------------


def _report(out: bytes) -> dict:
    report = json.loads(out)
    if report.get("passed") is not True:
        failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
        raise GateError(f"report not passed (failed checks: {failed})")
    return report


def _expect(name: str, got, want) -> None:
    if got != want:
        raise GateError(f"{name} is {got!r}, expected {want!r}")


def _passed(out: bytes, ctx: Context) -> None:
    _report(out)


def _table1(out: bytes, ctx: Context) -> None:
    corr = _report(out)["correlations"]
    _expect("mu", corr["mu"], "4")
    _expect("selection_rate", corr["selection_rate"], "1/4")


def _search(expected: str):
    def check(out: bytes, ctx: Context) -> None:
        _expect("mu_max", _report(out)["mu_max"], expected)

    return check


def _keep_report(key: str):
    def check(out: bytes, ctx: Context) -> None:
        ctx.reports[key] = _report(out)

    return check


def _ingest_lhv(ctx: Context) -> bytes:
    from etbell import events, source

    table = events.EventTable.read_csv(ctx.workdir / "lhv.csv")
    est = events.mermin_estimate(table)
    audit = source.locality_audit(table)
    return json.dumps(
        {
            "n_trials": table.n_trials,
            "terms": est.terms,
            "mu": est.mu,
            "selection_rate": est.selection_rate,
            "selected_counts": est.selected_counts,
            "counts": [p.counts for p in audit.per_party],
        }
    ).encode()


def _check_ingest_lhv(out: bytes, ctx: Context) -> None:
    got = json.loads(out)
    est = ctx.reports["lhv"]["estimate"]
    _expect("re-read trials", got["n_trials"], ctx.sizes.stream_trials)
    for key in ("terms", "mu", "selection_rate", "selected_counts"):
        _expect(f"re-read estimate {key}", got[key], est[key])
    for p, counts in enumerate(got["counts"]):
        _expect(f"party {p} audit total", sum(map(sum, counts)), got["n_trials"])


def _ingest_source(ctx: Context) -> bytes:
    from etbell import events, source

    table = events.EventTable.read_csv(ctx.workdir / "source.csv")
    audit = source.locality_audit(table)
    bins = table.bins
    agree = float(((bins[:, 0] == bins[:, 1]) & (bins[:, 2] == bins[:, 3])).mean())
    return json.dumps(
        {
            "n_trials": table.n_trials,
            "fourfold_rate": table.selection_rate(),
            "within_pair_agreement": agree,
            "counts": [p.counts for p in audit.per_party],
        }
    ).encode()


def _check_ingest_source(out: bytes, ctx: Context) -> None:
    got = json.loads(out)
    report = ctx.reports["source"]
    _expect("re-read trials", got["n_trials"], ctx.sizes.stream_trials)
    _expect("re-read fourfold_rate", got["fourfold_rate"], report["fourfold_rate"])
    _expect(
        "re-read within_pair_agreement",
        got["within_pair_agreement"],
        report["within_pair_agreement"],
    )


def _prepare(ctx: Context) -> bytes:
    from etbell import optics, states

    n, m = ctx.sizes.cascade_parties, ctx.sizes.cascade_modes
    state, probability = states.prepare_postselected([optics.generation_cascade(m)] * n)
    amps = state.amplitudes
    support = [int(i) for i in (abs(amps) > 1e-12).nonzero()[0]]
    want = m ** (1 - n)
    if not math.isclose(probability, want, rel_tol=1e-9):
        raise GateError(f"selection probability {probability!r}, expected {want!r}")
    if len(support) != m or any(
        not math.isclose(abs(amps[i]), m**-0.5, rel_tol=1e-9) for i in support
    ):
        raise GateError("postselected state is not an equal superposition of m terms")
    digest = hashlib.sha256(amps.tobytes()).hexdigest()
    return json.dumps({"probability": probability, "support": support, "sha256": digest}).encode()


def _decomposed(out: bytes, ctx: Context) -> None:
    n = ctx.sizes.unitary_modes
    splitters = n * (n - 1) // 2
    got = _report(out)["n_elements"]
    if not splitters <= got <= 2 * splitters:
        raise GateError(f"{got} mesh elements for {n} modes")


def _mesh_verified(out: bytes, ctx: Context) -> None:
    _expect("kind", _report(out)["kind"], "network")


# --- workloads --------------------------------------------------------------


def verify_ops(ctx: Context) -> list[Op]:
    audit = ("--trials", str(ctx.sizes.audit_trials), "--seed", str(ctx.seed))
    return [
        Op("lhv table1", ("lhv", "table1"), check=_table1),
        Op("lhv search dependent", ("lhv", "search", "--selection", "dependent"), check=_search("4")),
        Op("lhv search independent", ("lhv", "search", "--selection", "independent"), check=_search("2")),
        Op("lhv scale", ("lhv", "scale", "--target", "2.828427"), check=_passed),
        Op("source audit table1", ("source", "audit", "--model", "table1", *audit), check=_passed),
        Op("source audit quantum", ("source", "audit", "--model", "quantum", *audit), check=_passed),
        Op("mermin-quantum 3", ("mermin-quantum", "--n", "3"), check=_passed),
        Op("network cascade 4", ("network", "cascade", "--n", "4"), check=_passed),
    ]


def stream_ops(ctx: Context) -> list[Op]:
    n = ctx.sizes.stream_trials
    common = ("--trials", str(n), "--seed", str(ctx.seed))
    return [
        Op("lhv stream --out", ("lhv", "stream", *common, "--out", "lhv.csv"),
           check=_keep_report("lhv"), trials=n, kind="export"),
        Op("source stream --out", ("source", "stream", *common, "--out", "source.csv"),
           check=_keep_report("source"), trials=n, kind="export"),
        Op("ingest lhv.csv", call=_ingest_lhv, check=_check_ingest_lhv, trials=n, kind="ingest"),
        Op("ingest source.csv", call=_ingest_source, check=_check_ingest_source, trials=n, kind="ingest"),
    ]


def quantum_ops(ctx: Context) -> list[Op]:
    mermin = [
        Op(f"mermin-quantum {k}", ("mermin-quantum", "--n", str(k)), check=_passed)
        for k in ctx.sizes.mermin_parties
    ]
    return [
        *mermin,
        Op("network decompose", ("network", "decompose", "--in", "unitary.json", "--out", "mesh.json"),
           check=_decomposed),
        Op("network verify", ("network", "verify", "--in", "mesh.json"), check=_mesh_verified),
        Op("prepare_postselected", call=_prepare),
    ]


def random_unitary_json(modes: int, seed: int) -> dict:
    """Haar-random unitary (QR of a complex Gaussian matrix) in the
    ``{rows, cols, entries}`` matrix JSON format."""
    import numpy as np

    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / abs(d))
    return {"rows": modes, "cols": modes, "entries": [[c.real, c.imag] for c in q.ravel().tolist()]}


def make_inputs(ctx: Context) -> None:
    if ctx.workload == "quantum":
        data = random_unitary_json(ctx.sizes.unitary_modes, ctx.seed)
        (ctx.workdir / "unitary.json").write_text(json.dumps(data))


WORKLOADS = {"verify": verify_ops, "stream": stream_ops, "quantum": quantum_ops}

# Wall time of one untraced pass at full size on the 2-core reference
# machine (Python 3.11, OpenBLAS with default threads). It converts
# ``--seconds`` into a fixed number of passes, so every run and every commit
# times the same operations in the same mix.
PASS_SECONDS = {"verify": 10.0, "stream": 7.5, "quantum": 13.0}


def new_context(workload: str, seed: int, sizes: Sizes) -> Context:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return Context(workload, seed, sizes, workdir)


def setup_once(ctx: Context) -> float:
    """Generate the inputs and run a warm-up CLI process that compiles the
    package's bytecode from scratch; return its wall time."""
    t0 = time.perf_counter()
    make_inputs(ctx)
    shutil.rmtree(SRC / "etbell" / "__pycache__", ignore_errors=True)
    run_cli(("--version",), ctx)
    return time.perf_counter() - t0
