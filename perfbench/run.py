"""etbell benchmark: one closed-loop client, one operation at a time.

    python3 perfbench/run.py --workload verify|stream|quantum --seed N \
        --seconds S --trace 0|1

With ``--trace 0`` the workload's operations run as real CLI processes (plus
the in-process calls the workload names) in whole passes, as many as fill
about ``S`` seconds on the reference machine, and the end-to-end metrics are
reported. With ``--trace 1`` the import profile is measured from outside,
then as many pairs of one untraced and one traced in-process pass
(``etbell.cli.main`` with wrapped public functions) as the untraced run has
passes, and the per-layer metrics, per pass, and the tracing overhead are
reported.

Human-readable lines, including the environment block, come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (names and units from ``BENCHMARK.json``). Every
operation is gated for correctness; the exit status is 1 if any failed.
Outputs go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from statistics import median, quantiles

import workloads
from environment import environment, import_profile
from tracing import Tracer, summarise
from workloads import FULL, ROOT, SRC, WORK, Sizes, execute, new_context, setup_once

# Fewest operations timed per run, so the 90th percentile has samples above it.
MIN_SAMPLES = 10


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def n_passes(workload: str, seconds: float, n_ops: int) -> int:
    """Whole passes that fill about ``seconds`` on the reference machine,
    and at least ``MIN_SAMPLES`` operations."""
    return max(round(seconds / workloads.PASS_SECONDS[workload]), -(-MIN_SAMPLES // n_ops))


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def measure(workload: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    """Untraced run: end-to-end metrics over CLI processes."""
    ctx = new_context(workload, seed, sizes)
    setups = [setup_once(ctx) for _ in range(sizes.setup_repeats)]
    ops = workloads.WORKLOADS[workload](ctx)
    if any(op.call for op in ops):
        import etbell.cli  # noqa: F401  (in-process operations run warm)
    samples, failures = [], []
    per_op: dict[str, list[float]] = {}
    kinds = {"export": [0, 0.0], "ingest": [0, 0.0]}

    passes = n_passes(workload, seconds, len(ops))
    start = time.perf_counter()
    for _ in range(passes):
        for op in ops:
            wall, err = execute(op, ctx, in_process=False)
            samples.append(wall)
            per_op.setdefault(op.name, []).append(wall)
            if err:
                failures.append(err)
            if op.kind:
                kinds[op.kind][0] += op.trials
                kinds[op.kind][1] += wall
    loop_wall = time.perf_counter() - start
    metrics = {
        "setup_s": median(setups),
        "op_p50_s": median(samples),
        "op_tail_s": quantiles(samples, n=10)[-1],
        "ops_per_s": len(samples) / loop_wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {
        "failed_frac": len(failures) / len(samples),
        "op_tail_percentile": 90,
        "samples": len(samples),
        "passes": passes,
        "op_median_s": {name: median(w) for name, w in per_op.items()},
    }
    for kind, (trials, wall) in kinds.items():
        if trials:
            extra[f"{kind}_trials_per_s"] = trials / wall
    return {"metrics": metrics, "extra": extra, "attempted": len(samples), "failures": failures, "ctx": ctx}


def measure_traced(workload: str, seed: int, seconds: float, sizes: Sizes) -> dict:
    """Traced run: import profile, then untraced/traced in-process pass pairs."""
    ctx = new_context(workload, seed, sizes)
    setup_once(ctx)
    metrics = import_profile()
    import etbell.cli  # noqa: F401

    ops = workloads.WORKLOADS[workload](ctx)
    tracer = Tracer()
    failures, attempted = [], 0
    untraced, traced, bounds = [], [], []
    kinds = {"export": [0, 0.0], "ingest": [0, 0.0]}

    def one_pass(with_trace: bool) -> None:
        nonlocal attempted
        first, before = len(tracer.spans), tracer.counters.copy()
        if with_trace:
            tracer.install()
        t0 = time.perf_counter()
        try:
            for i, op in enumerate(ops):
                tracer.op = i
                wall, err = execute(op, ctx, in_process=True)
                attempted += 1
                if err:
                    failures.append(err)
                if op.kind and not with_trace:
                    kinds[op.kind][0] += op.trials
                    kinds[op.kind][1] += wall
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        if with_trace:
            traced.append(wall)
            bounds.append((first, len(tracer.spans), tracer.counters - before))
        else:
            untraced.append(wall)

    for pair in range(n_passes(workload, seconds, len(ops))):
        first_traced = pair % 2 == 1  # alternate which side runs first
        one_pass(first_traced)
        one_pass(not first_traced)
    tracer.write(ctx.workdir / "spans.jsonl")
    metrics.update(summarise(tracer, bounds))
    metrics["trace.overhead_s"] = median(traced) - median(untraced)
    for kind, (trials, wall) in kinds.items():
        metrics[f"events.{kind}_trials_per_s"] = trials / wall if trials else 0.0
    extra = {"failed_frac": len(failures) / attempted, "pairs": len(traced)}
    return {"metrics": metrics, "extra": extra, "attempted": attempted, "failures": failures, "ctx": ctx}


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL) -> dict:
    """Run one workload and return the result record (see module docstring)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    result = (
        measure_traced(workload, seed, seconds, sizes)
        if trace
        else measure(workload, seed, seconds, sizes)
    )
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec()[section]}
    result["metrics"] = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()}
    result["environment"] = environment()
    return result


def report(result: dict, workload: str, seed: int, trace: bool) -> dict:
    """Print the human-readable lines, save the full record, return the summary."""
    failures = result.pop("failures")
    ctx = result.pop("ctx")
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  workdir {ctx.workdir}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']!r} {m['unit']}")
    for name, value in result["extra"].items():
        print(f"  {name:45s} {value!r}")
    for err in failures:
        print(f"  FAILED {err}")
    summary = {
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": result["metrics"],
    }
    out = WORK / "results" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({**result, **summary, "failures": failures}, indent=1, sort_keys=True))
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "etbell" / "cli.py").is_file():
        sys.stderr.write(f"error: no etbell sources under {SRC}\n")
        return 2
    trace = bool(args.trace)
    result = run(args.workload, args.seed, args.seconds, trace)
    summary = report(result, args.workload, args.seed, trace)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
