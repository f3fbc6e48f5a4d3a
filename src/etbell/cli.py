"""Batch command-line front end.

Subcommands
-----------
``mermin-quantum``
    Quantum Mermin functional on the n-party GHZ state, with the four
    correlation-operator checks and an optional phase sweep to CSV.
``lhv table1 | search | scale | stream``
    The saturating instruction model, the exhaustive setting-dependent /
    setting-independent maximizations, scaled models, and seeded Monte-Carlo
    event streams.
``network dft | analyzer | cascade | decompose | verify``
    DFT and analyzer matrices, generation cascades, triangular mesh
    decomposition of a unitary from JSON, and unitarity verification.
``source state | filter | stream | audit``
    The pulsed-source four-photon state, coincidence filtering, event
    streams, and the selection/setting locality audit.

The parser is the only configuration: each leaf command declares the flags
it reads, with their defaults, and registers its handler, which receives the
parsed arguments. ``--out`` names the report file, except for ``lhv stream``
and ``source stream`` (the events CSV) and ``network decompose`` (the mesh
JSON), which then print the report. Every file written (``--out``,
``--sweep-out``) replaces an existing one rather than truncating it.
``--tol`` is a positive check tolerance on the commands that compare a
float against one; ``--trials`` and ``--seed`` exist only on the sampling
commands (``lhv stream``, ``source stream``, ``source audit``).

Reports are JSON with sorted keys and full-precision floats; streams and
sweeps are CSV. Identical arguments (including seeds) produce byte-identical
output. The exit status is 0 only if every requested check passed its
tolerance.

Importing this module loads no numpy and executes no etbell submodule, so
``--version``, ``--help`` and usage errors exit before either loads.
``mermin-quantum`` and ``lhv table1|search|scale`` load no numpy, and only
the ``network`` commands load the ``@dataclass`` module (it imports
``inspect``): states, settings, strategies and exact weights are plain
Python, and the other records are named tuples or plain classes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

# Module-qualified calls keep each submodule unexecuted until a handler uses
# it (the package binds them lazily), so a command runs only what it needs.
from . import __version__, events, lhv, mermin, numerics, optics, source, states


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _check(name: str, value, passed: bool, tolerance=None) -> dict:
    item = {"name": name, "value": value, "passed": bool(passed)}
    if tolerance is not None:
        item["tolerance"] = tolerance
    return item


def _emit(report: dict, args, stdout, path: str | None) -> int:
    """Write the report to ``path`` (stdout when None); exit status 0 only
    if every check passed."""
    report = dict(report)
    report["command"] = args.subcommand
    checks = report.get("checks", [])
    report["passed"] = all(c["passed"] for c in checks)
    text = json.dumps(report, indent=2, sort_keys=True, default=_encode) + "\n"
    if path:
        with numerics.open_replacing(path) as fh:
            fh.write(text)
    else:
        stdout.write(text)
    return 0 if report["passed"] else 1


def _unitary_report(args, m, stdout, **fields) -> int:
    defect = numerics.unitarity_defect(m)
    report = {
        **fields,
        "unitarity_defect": defect,
        "checks": [_check("unitary", defect, defect <= args.tol, args.tol)],
    }
    return _emit(report, args, stdout, args.out)


def _parse_settings(spec: str, n: int):
    """Lowercase setting spec: ``mabk`` = the pairs rotated by ``k pi/(4n)``,
    ``k = (n + 1) mod 4``, which reach ``2^((n+1)/2)`` (Werner & Wolf, PRA 64,
    032112); two chars = (setting-0, setting-1) Paulis for every party; n
    chars = one Pauli per party used for both settings."""
    if spec == "mabk":  # before the Pauli specs, so it is never four characters at n = 4
        return states.rotated_settings([(n + 1) % 4 * math.pi / (4 * n)] * n)
    pauli = {"x": states.PAULI_X, "y": states.PAULI_Y}
    if any(c not in pauli for c in spec):
        raise ValueError("settings may only use the characters x and y")
    if len(spec) == 2:
        return ((pauli[spec[0]], pauli[spec[1]]),) * n
    if len(spec) == n:
        return tuple((pauli[c], pauli[c]) for c in spec)
    raise ValueError(f"settings must have 2 or {n} characters")


def cmd_mermin_quantum(args, stdout) -> int:
    n, tol = args.n, args.tol
    if n < 2:
        raise ValueError("need at least two parties")
    if args.sweep is not None and args.sweep < 1:
        raise ValueError(f"--sweep needs at least one point, got {args.sweep}")
    if args.sweep_out is not None and args.sweep is None:
        raise ValueError("--sweep-out needs --sweep")
    if args.sweep is not None and n != 3:
        raise ValueError(f"--sweep is a three-party sweep and needs --n 3, got --n {n}")
    spec = args.settings.lower()
    settings = _parse_settings(spec, n)
    if args.sweep is not None and spec != "yx":
        raise ValueError(
            f"--sweep rotates the yx settings and needs --settings yx, got --settings {args.settings}"
        )
    states.check_correlator_size((2,) * n, (2,) * n)  # before the state exists
    state = states.ghz_state(n)
    result = states.mermin_n(state, settings)
    mu = result.mu
    report: dict = {"n_parties": n, "settings": args.settings, "mu": mu}
    checks = []
    if n == 3:
        report["terms"] = list(result.terms)
        stabilizers = states.stabilizer_expectations(state)
        report["stabilizer_expectations"] = list(stabilizers)
        for k, value in enumerate(stabilizers):
            checks.append(
                _check(f"stabilizer_{k}_eigenvalue_-1", value, abs(value + 1.0) <= tol, tol)
            )
        if spec == "yx":
            checks.append(_check("mu_equals_4", mu, abs(mu - 4.0) <= tol, tol))
    if n <= 6:  # the bound is exact at any n; reports carry it up to 6, as they always have
        report["classical_bound"] = mermin.mermin_classical_bound(n)
    quantum_bound = 2.0 ** ((n + 1) / 2)
    checks.append(_check("mu_within_quantum_bound", mu, mu <= quantum_bound + tol, tol))
    if spec == "mabk":
        checks.append(_check("mu_reaches_quantum_bound", mu, abs(mu - quantum_bound) <= tol, tol))
    report["checks"] = checks
    if args.sweep is not None:
        path = args.sweep_out or "mermin_sweep.csv"
        _write_sweep(path, args.sweep)
        report["sweep_csv"] = path
    return _emit(report, args, stdout, args.out)


def _write_sweep(path: str, points: int) -> None:
    state = states.ghz_state(3)
    with numerics.open_replacing(path) as fh:
        fh.write("phase,term1,term2,term3,term4,mu\n")
        for k in range(points):
            delta = 2 * math.pi * k / points
            result = states.mermin_n(state, states.rotated_settings((delta, 0.0, 0.0)))
            cells = [repr(float(v)) for v in (delta, *result.terms, result.mu)]
            fh.write(",".join(cells) + "\n")


def _correlations_report(corr) -> dict:
    return {
        "terms": [t if t is not None else "undefined" for t in corr.terms],
        "mu": corr.mu if corr.mu is not None else "undefined",
        "selection_rate": corr.selection_rate,
        "selected_fractions": list(corr.selected_fractions),
        "undefined_terms": list(corr.undefined_terms),
    }


def cmd_lhv_table1(args, stdout) -> int:
    model = lhv.saturating_model()
    corr = lhv.evaluate_postselected(model)
    marginals = lhv.marginal_distribution(model)
    uniform = all(
        len(dist) == 4 and all(w == Fraction(1, 4) for w in dist.values())
        for dist in marginals.values()
    )
    report = {
        "model_size": model.size,
        "correlations": _correlations_report(corr),
        "rejection_fraction": 1 - corr.selection_rate,
        "marginals": {
            f"party{p}_setting{s}": {k: v for k, v in sorted(dist.items())}
            for (p, s), dist in marginals.items()
        },
        "checks": [
            _check("mu_equals_4_exact", corr.mu, corr.mu == 4),
            _check(
                "terms_plus_plus_plus_minus",
                [str(t) for t in corr.terms],
                corr.terms == (1, 1, 1, -1),
            ),
            _check("selection_rate_1_4", corr.selection_rate, corr.selection_rate == Fraction(1, 4)),
            _check("rejection_3_4", 1 - corr.selection_rate, 1 - corr.selection_rate == Fraction(3, 4)),
            _check("uniform_marginals_1_4", uniform, uniform),
        ],
    }
    return _emit(report, args, stdout, args.out)


def cmd_lhv_search(args, stdout) -> int:
    if args.selection == "dependent":
        result = lhv.max_mu_setting_dependent()
        expected = 4
    else:
        result = lhv.max_mu_setting_independent()
        expected = 2
    report = {
        "selection": args.selection,
        "mu_max": result.mu_max,
        "strategies_examined": result.strategies_examined,
        "witness": lhv.ensemble_to_json(result.witness),
        "witness_correlations": _correlations_report(result.correlations),
        "checks": [_check(f"mu_max_equals_{expected}", result.mu_max, result.mu_max == expected)],
    }
    return _emit(report, args, stdout, args.out)


def cmd_lhv_scale(args, stdout) -> int:
    corr = lhv.evaluate_postselected(lhv.scaled_model(args.target))
    achieved = float(corr.mu)
    report = {
        "target": args.target,
        "correlations": _correlations_report(corr),
        "achieved_mu": achieved,
        "checks": [_check("mu_matches_target", achieved, abs(achieved - args.target) <= 1e-9, 1e-9)],
    }
    return _emit(report, args, stdout, args.out)


def cmd_lhv_stream(args, stdout) -> int:
    model = lhv.saturating_model() if args.target is None else lhv.scaled_model(args.target)
    table = lhv.event_stream(model, args.trials, seed=args.seed)
    estimate = events.mermin_estimate(table)
    exact = lhv.evaluate_postselected(model)
    checks = []
    for k, (est, ex, n_sel) in enumerate(zip(estimate.terms, exact.terms, estimate.selected_counts)):
        if est is None or n_sel == 0:
            checks.append(_check(f"term{k}_estimated", est, False))
            continue
        sigma = math.sqrt(max(1.0 - float(ex) ** 2, 0.0) / n_sel)
        ok = abs(est - float(ex)) <= 5.0 * sigma + 1e-12
        checks.append(_check(f"term{k}_within_5_sigma", est, ok))
    if args.out:
        table.write_csv(args.out)
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "estimate": {
            "terms": [t if t is not None else "undefined" for t in estimate.terms],
            "mu": estimate.mu if estimate.mu is not None else "undefined",
            "selection_rate": estimate.selection_rate,
            "selected_counts": list(estimate.selected_counts),
        },
        "exact": _correlations_report(exact),
        "events_csv": args.out,
        "checks": checks,
    }
    return _emit(report, args, stdout, None)


def cmd_network_dft(args, stdout) -> int:
    m = optics.dft_unitary(args.n)
    return _unitary_report(args, m, stdout, n=args.n, matrix=numerics.matrix_to_json(m))


def cmd_network_analyzer(args, stdout) -> int:
    phases = {k: getattr(args, k) for k in ("alpha", "beta", "gamma", "phi2", "phi3")}
    m = optics.qutrit_analyzer(**phases)
    return _unitary_report(args, m, stdout, phases=phases, matrix=numerics.matrix_to_json(m))


def cmd_network_cascade(args, stdout) -> int:
    n = args.n
    net = optics.generation_cascade(n)
    amplitudes = optics.compose(net)[:, 0]
    worst = float(abs(abs(amplitudes) - 1.0 / math.sqrt(n)).max())
    report = {
        "n": n,
        "network": optics.network_to_json(net),
        "reflectivities": [el.reflectivity for el in net.elements],
        "output_amplitudes": [[a.real, a.imag] for a in amplitudes],
        "max_amplitude_error": worst,
        "checks": [_check("equal_splitting", worst, worst <= args.tol, args.tol)],
    }
    return _emit(report, args, stdout, args.out)


def cmd_network_decompose(args, stdout) -> int:
    with open(args.infile) as fh:
        u = numerics.matrix_from_json(json.load(fh))
    dec = optics.reck_decompose(u, tol=args.tol)
    err = float(abs(dec.reconstruct() - u).max())
    if args.out:
        with numerics.open_replacing(args.out) as fh:
            fh.write(optics.decomposition_text(dec))
    report = {
        "infile": args.infile,
        "n_elements": len(dec.network.elements),
        "residual_phases": [float(p) for p in dec.residual_phases],
        "roundtrip_error": err,
        "network_json": None if args.out else optics.decomposition_to_json(dec),
        "network_out": args.out,
        "checks": [_check("roundtrip_error", err, err <= 1e-9, 1e-9)],
    }
    return _emit(report, args, stdout, None)


def cmd_network_verify(args, stdout) -> int:
    with open(args.infile) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "elements" in data:
        if "residual_phases" in data:  # written by `network decompose`
            net = optics.decomposition_from_json(data).network
        else:
            net = optics.network_from_json(data)
        m = optics.compose(net)
        kind = "network"
    else:
        m = numerics.matrix_from_json(data)
        kind = "matrix"
    return _unitary_report(args, m, stdout, infile=args.infile, kind=kind)


def cmd_source_state(args, stdout) -> int:
    import numpy as np  # here, so parsing alone never imports numpy

    state = source.four_photon_state()
    norm = float(np.linalg.norm(state.amplitudes))
    report = {
        "state": states.state_to_json(state),
        "norm": norm,
        "checks": [_check("normalized", norm, abs(norm - 1.0) <= args.tol, args.tol)],
    }
    return _emit(report, args, stdout, args.out)


def cmd_source_filter(args, stdout) -> int:
    filtered, keep = states.postselect_coincident(source.four_photon_state())
    report = {
        "keep_probability": keep,
        "filtered_state": states.state_to_json(filtered),
        "checks": [_check("keep_probability_1_2", keep, abs(keep - 0.5) <= args.tol, args.tol)],
    }
    return _emit(report, args, stdout, args.out)


def cmd_source_stream(args, stdout) -> int:
    table = source.source_event_stream(args.trials, seed=args.seed)
    agree = float(
        ((table.bins[:, 0] == table.bins[:, 1]) & (table.bins[:, 2] == table.bins[:, 3])).mean()
    )
    rate = table.selection_rate()
    sigma = math.sqrt(0.25 / args.trials)
    if args.out:
        table.write_csv(args.out)
    report = {
        "trials": args.trials,
        "seed": args.seed,
        "within_pair_agreement": agree,
        "fourfold_rate": rate,
        "events_csv": args.out,
        "checks": [
            _check("pairs_share_bins", agree, agree == 1.0),
            _check("fourfold_rate_1_2", rate, abs(rate - 0.5) <= 5.0 * sigma),
        ],
    }
    return _emit(report, args, stdout, None)


def cmd_source_audit(args, stdout) -> int:
    if args.model == "quantum":
        ghz = states.ghz_state(3)
        table = states.sample_measurement_events(ghz, trials=args.trials, seed=args.seed)
        audit = source.locality_audit(table)
        expect_dependent = False
    else:
        model = lhv.saturating_model()
        table = lhv.event_stream(model, args.trials, seed=args.seed)
        audit = source.locality_audit(table, ensemble=model)
        expect_dependent = True
    report = {
        "model": args.model,
        "trials": args.trials,
        "seed": args.seed,
        "per_party": [p._asdict() for p in audit.per_party],
        "joint_p_value": audit.joint_p_value,
        "counterfactual_dependent": audit.counterfactual_dependent,
        "setting_dependent": audit.setting_dependent,
        "checks": [
            _check(
                "loophole_detected" if expect_dependent else "no_setting_dependence",
                audit.setting_dependent,
                audit.setting_dependent == expect_dependent,
            )
        ],
    }
    return _emit(report, args, stdout, args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etbell",
        description="Multiparty energy-time entanglement simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"etbell {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def leaf(subparsers, name, handler, summary, *, out="report file (default: stdout)",
             tol=None, sampled=False):
        """A leaf command: its handler, ``--out`` and, where the handler
        reads them, ``--tol`` (with this command's default) or
        ``--trials``/``--seed``."""
        p = subparsers.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--out", type=str, default=None, help=out)
        if tol is not None:
            p.add_argument("--tol", type=float, default=tol, help=f"check tolerance (default {tol:g})")
        if sampled:
            p.add_argument("--trials", type=int, default=10000, help="number of trials")
            p.add_argument("--seed", type=int, default=0, help="random seed")
        return p

    p = leaf(sub, "mermin-quantum", cmd_mermin_quantum, "quantum Mermin value on GHZ", tol=1e-12)
    p.add_argument("--n", type=int, default=3, help="number of parties")
    p.add_argument(
        "--settings",
        type=str,
        default="yx",
        help="'yx' (default, per-party sigma_y/sigma_x), 'mabk' (rotated pairs that reach "
        "2^((n+1)/2)) or one Pauli char per party",
    )
    p.add_argument("--sweep", type=int, default=None, help="phase sweep points to CSV")
    p.add_argument("--sweep-out", type=str, default=None, help="sweep CSV (default mermin_sweep.csv)")

    lhv_cmds = sub.add_parser("lhv", help="local hidden-variable models").add_subparsers(
        dest="action", required=True
    )
    leaf(lhv_cmds, "table1", cmd_lhv_table1, "verify the saturating instruction model")
    q = leaf(lhv_cmds, "search", cmd_lhv_search, "exhaustive postselected-mu maximization")
    q.add_argument("--selection", choices=("dependent", "independent"), required=True)
    q = leaf(lhv_cmds, "scale", cmd_lhv_scale, "model with a chosen postselected mu")
    q.add_argument("--target", type=float, required=True)
    q = leaf(lhv_cmds, "stream", cmd_lhv_stream, "Monte-Carlo event stream", out="events CSV",
             sampled=True)
    q.add_argument("--target", type=float, default=None, help="scaled-model target mu")

    net = sub.add_parser("network", help="interferometer network tools").add_subparsers(
        dest="action", required=True
    )
    q = leaf(net, "dft", cmd_network_dft, "N-mode DFT unitary", tol=1e-10)
    q.add_argument("--n", "--levels", dest="n", type=int, required=True)
    q = leaf(net, "analyzer", cmd_network_analyzer, "three-mode analyzer matrix", tol=1e-10)
    q.add_argument("--alpha", type=float, default=math.pi / 3)
    q.add_argument("--beta", type=float, default=math.pi / 3)
    q.add_argument("--gamma", type=float, default=-math.pi / 6)
    q.add_argument("--phi2", type=float, default=0.0)
    q.add_argument("--phi3", type=float, default=0.0)
    q = leaf(net, "cascade", cmd_network_cascade, "equal-splitting generation cascade", tol=1e-10)
    q.add_argument("--n", "--levels", dest="n", type=int, required=True)
    q = leaf(net, "decompose", cmd_network_decompose, "triangular mesh decomposition",
             out="mesh JSON (default: inline in the report)", tol=1e-10)
    q.add_argument("--in", dest="infile", type=str, required=True, help="matrix JSON")
    q = leaf(net, "verify", cmd_network_verify, "unitarity check of a matrix/network file", tol=1e-10)
    q.add_argument("--in", dest="infile", type=str, required=True)

    src = sub.add_parser("source", help="pulsed-source model").add_subparsers(
        dest="action", required=True
    )
    leaf(src, "state", cmd_source_state, "four-photon emission state", tol=1e-12)
    leaf(src, "filter", cmd_source_filter, "coincidence filter", tol=1e-12)
    leaf(src, "stream", cmd_source_stream, "pair-emission event stream", out="events CSV", sampled=True)
    q = leaf(src, "audit", cmd_source_audit, "selection/setting locality audit", sampled=True)
    q.add_argument("--model", choices=("quantum", "table1"), default="quantum")

    return parser


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        if "tol" in args and not args.tol > 0:
            raise ValueError("tolerance must be positive")
        return args.handler(args, stdout)
    except (ValueError, ArithmeticError, OSError, KeyError, MemoryError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
