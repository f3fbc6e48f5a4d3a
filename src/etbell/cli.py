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

Reports are JSON with sorted keys and full-precision floats; streams and
sweeps are CSV. Identical configurations (including seeds) produce
byte-identical output. The exit status is 0 only if every requested check
passed its tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import __version__
from .events import mermin_estimate
from .lhv import (
    StrategyEnsemble,
    ensemble_to_json,
    evaluate_postselected,
    event_stream,
    marginal_distribution,
    max_mu_setting_dependent,
    max_mu_setting_independent,
    mermin_classical_bound,
    saturating_model,
    scaled_model,
)
from .numerics import matrix_from_json, matrix_to_json, unitarity_defect
from .optics import (
    compose,
    decomposition_from_json,
    decomposition_to_json,
    dft_unitary,
    generation_cascade,
    network_from_json,
    network_to_json,
    qutrit_analyzer,
    reck_decompose,
)
from .source import (
    PumpConfig,
    coincidence_filter,
    four_photon_state,
    locality_audit,
    source_event_stream,
)
from .states import (
    PAULI_X,
    PAULI_Y,
    ghz_state,
    mermin3,
    mermin_n,
    rotated_settings,
    stabilizer_expectations,
    standard_settings,
    state_to_json,
)

_PAULI_BY_CHAR = {"x": PAULI_X, "y": PAULI_Y}


@dataclass
class RunConfig:
    """Validated run parameters shared by every subcommand."""

    subcommand: str
    n_parties: int = 3
    n_levels: int = 3
    trials: int = 10000
    seed: int = 0
    tolerance: float = 1e-10
    output_path: str | None = None
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


def _encode(obj):
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _check(name: str, value, passed: bool, tolerance=None) -> dict:
    item = {"name": name, "value": value, "passed": bool(passed)}
    if tolerance is not None:
        item["tolerance"] = tolerance
    return item


def _emit(report: dict, cfg: RunConfig, stdout) -> int:
    report = dict(report)
    report["command"] = cfg.subcommand
    checks = report.get("checks", [])
    report["passed"] = all(c["passed"] for c in checks)
    text = json.dumps(report, indent=2, sort_keys=True, default=_encode) + "\n"
    if cfg.output_path:
        with open(cfg.output_path, "w") as fh:
            fh.write(text)
    else:
        stdout.write(text)
    return 0 if report["passed"] else 1


def _parse_settings(spec: str, n: int):
    """Setting spec: two chars = (setting-0, setting-1) Paulis for every
    party; n chars = one Pauli per party used for both settings."""
    spec = spec.lower()
    if any(c not in _PAULI_BY_CHAR for c in spec):
        raise ValueError("settings may only use the characters x and y")
    if len(spec) == 2:
        pair = (_PAULI_BY_CHAR[spec[0]], _PAULI_BY_CHAR[spec[1]])
        return (pair,) * n
    if len(spec) == n:
        return tuple((_PAULI_BY_CHAR[c], _PAULI_BY_CHAR[c]) for c in spec)
    raise ValueError(f"settings must have 2 or {n} characters")


def cmd_mermin_quantum(cfg: RunConfig, stdout) -> int:
    n = cfg.n_parties
    if n < 2:
        raise ValueError("need at least two parties")
    state = ghz_state(n)
    settings = _parse_settings(cfg.options.get("settings") or "yx", n)
    default_settings = cfg.options.get("settings") in (None, "yx")
    report: dict = {"n_parties": n, "settings": cfg.options.get("settings") or "yx"}
    checks = []
    if n == 3:
        flat = [obs for pair in settings for obs in pair]
        result = mermin3(state, *flat)
        report["terms"] = list(result.terms)
        report["mu"] = result.mu
        stabilizers = stabilizer_expectations(state)
        report["stabilizer_expectations"] = list(stabilizers)
        for k, value in enumerate(stabilizers):
            checks.append(
                _check(
                    f"stabilizer_{k}_eigenvalue_-1",
                    value,
                    abs(value + 1.0) <= cfg.tolerance,
                    cfg.tolerance,
                )
            )
        if default_settings:
            checks.append(
                _check("mu_equals_4", result.mu, abs(result.mu - 4.0) <= cfg.tolerance, cfg.tolerance)
            )
        mu = result.mu
    else:
        mu = mermin_n(state, settings)
        report["mu"] = mu
    if n <= 6:  # the classical bound enumerates 4^n assignments
        report["classical_bound"] = mermin_classical_bound(n)
    quantum_bound = 2.0 ** ((n + 1) / 2)
    checks.append(
        _check(
            "mu_within_quantum_bound",
            mu,
            mu <= quantum_bound + cfg.tolerance,
            cfg.tolerance,
        )
    )
    report["checks"] = checks
    sweep = cfg.options.get("sweep")
    if sweep:
        path = cfg.options.get("sweep_out") or "mermin_sweep.csv"
        _write_sweep(path, int(sweep))
        report["sweep_csv"] = path
    return _emit(report, cfg, stdout)


def _write_sweep(path: str, points: int) -> None:
    state = ghz_state(3)
    with open(path, "w") as fh:
        fh.write("phase,term1,term2,term3,term4,mu\n")
        for k in range(points):
            delta = 2 * math.pi * k / points
            settings = rotated_settings((delta, 0.0, 0.0))
            flat = [obs for pair in settings for obs in pair]
            result = mermin3(state, *flat)
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


def cmd_lhv(cfg: RunConfig, stdout) -> int:
    action = cfg.options["action"]
    if action == "table1":
        model = saturating_model()
        corr = evaluate_postselected(model)
        marginals = marginal_distribution(model)
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
        return _emit(report, cfg, stdout)
    if action == "search":
        selection = cfg.options["selection"]
        if selection == "dependent":
            result = max_mu_setting_dependent()
            expected = 4
        else:
            result = max_mu_setting_independent()
            expected = 2
        report = {
            "selection": selection,
            "mu_max": result.mu_max,
            "strategies_examined": result.strategies_examined,
            "witness": ensemble_to_json(result.witness),
            "witness_correlations": _correlations_report(result.correlations),
            "checks": [
                _check(f"mu_max_equals_{expected}", result.mu_max, result.mu_max == expected)
            ],
        }
        return _emit(report, cfg, stdout)
    if action == "scale":
        target = cfg.options["target"]
        model = scaled_model(target)
        corr = evaluate_postselected(model)
        achieved = float(corr.mu)
        report = {
            "target": target,
            "correlations": _correlations_report(corr),
            "achieved_mu": achieved,
            "checks": [
                _check("mu_matches_target", achieved, abs(achieved - target) <= 1e-9, 1e-9)
            ],
        }
        return _emit(report, cfg, stdout)
    if action == "stream":
        target = cfg.options.get("target")
        model = saturating_model() if target is None else scaled_model(target)
        table = event_stream(model, cfg.trials, seed=cfg.seed)
        estimate = mermin_estimate(table)
        exact = evaluate_postselected(model)
        checks = []
        for k, (est, ex, n_sel) in enumerate(
            zip(estimate.terms, exact.terms, estimate.selected_counts)
        ):
            if est is None or n_sel == 0:
                checks.append(_check(f"term{k}_estimated", est, False))
                continue
            sigma = math.sqrt(max(1.0 - float(ex) ** 2, 0.0) / n_sel)
            ok = abs(est - float(ex)) <= 5.0 * sigma + 1e-12
            checks.append(_check(f"term{k}_within_5_sigma", est, ok))
        if cfg.output_path:
            table.write_csv(cfg.output_path)
        report = {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "estimate": {
                "terms": [t if t is not None else "undefined" for t in estimate.terms],
                "mu": estimate.mu if estimate.mu is not None else "undefined",
                "selection_rate": estimate.selection_rate,
                "selected_counts": list(estimate.selected_counts),
            },
            "exact": _correlations_report(exact),
            "events_csv": cfg.output_path,
            "checks": checks,
        }
        out_cfg = RunConfig(**{**cfg.__dict__, "output_path": None})
        return _emit(report, out_cfg, stdout)
    raise ValueError(f"unknown lhv action {action!r}")


def cmd_network(cfg: RunConfig, stdout) -> int:
    action = cfg.options["action"]
    if action == "dft":
        n = cfg.n_levels
        m = dft_unitary(n)
        defect = unitarity_defect(m)
        report = {
            "n": n,
            "matrix": matrix_to_json(m),
            "unitarity_defect": defect,
            "checks": [_check("unitary", defect, defect <= cfg.tolerance, cfg.tolerance)],
        }
        return _emit(report, cfg, stdout)
    if action == "analyzer":
        opts = cfg.options
        m = qutrit_analyzer(
            alpha=opts["alpha"], beta=opts["beta"], gamma=opts["gamma"],
            phi2=opts["phi2"], phi3=opts["phi3"],
        )
        defect = unitarity_defect(m)
        report = {
            "phases": {k: opts[k] for k in ("alpha", "beta", "gamma", "phi2", "phi3")},
            "matrix": matrix_to_json(m),
            "unitarity_defect": defect,
            "checks": [_check("unitary", defect, defect <= cfg.tolerance, cfg.tolerance)],
        }
        return _emit(report, cfg, stdout)
    if action == "cascade":
        n = cfg.n_levels
        net = generation_cascade(n)
        amplitudes = compose(net)[:, 0]
        target = 1.0 / math.sqrt(n)
        worst = float(np.abs(np.abs(amplitudes) - target).max())
        report = {
            "n": n,
            "network": network_to_json(net),
            "reflectivities": [el.reflectivity for el in net.elements],
            "output_amplitudes": [[a.real, a.imag] for a in amplitudes],
            "max_amplitude_error": worst,
            "checks": [
                _check("equal_splitting", worst, worst <= cfg.tolerance, cfg.tolerance)
            ],
        }
        return _emit(report, cfg, stdout)
    if action == "decompose":
        with open(cfg.options["infile"]) as fh:
            u = matrix_from_json(json.load(fh))
        dec = reck_decompose(u, tol=cfg.tolerance)
        err = float(np.abs(dec.reconstruct() - u).max())
        net_json = decomposition_to_json(dec)
        if cfg.output_path:
            with open(cfg.output_path, "w") as fh:
                json.dump(net_json, fh, indent=2, sort_keys=True)
                fh.write("\n")
        report = {
            "infile": cfg.options["infile"],
            "n_elements": len(dec.network.elements),
            "residual_phases": [float(p) for p in dec.residual_phases],
            "roundtrip_error": err,
            "network_json": None if cfg.output_path else net_json,
            "network_out": cfg.output_path,
            "checks": [_check("roundtrip_error", err, err <= 1e-9, 1e-9)],
        }
        out_cfg = RunConfig(**{**cfg.__dict__, "output_path": None})
        return _emit(report, out_cfg, stdout)
    if action == "verify":
        with open(cfg.options["infile"]) as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "elements" in data:
            if "residual_phases" in data:  # written by `network decompose`
                net = decomposition_from_json(data).network
            else:
                net = network_from_json(data)
            m = compose(net)
            kind = "network"
        else:
            m = matrix_from_json(data)
            kind = "matrix"
        defect = unitarity_defect(m)
        report = {
            "infile": cfg.options["infile"],
            "kind": kind,
            "unitarity_defect": defect,
            "checks": [_check("unitary", defect, defect <= cfg.tolerance, cfg.tolerance)],
        }
        return _emit(report, cfg, stdout)
    raise ValueError(f"unknown network action {action!r}")


def cmd_source(cfg: RunConfig, stdout) -> int:
    action = cfg.options["action"]
    if action == "state":
        state = four_photon_state()
        norm = float(np.linalg.norm(state.amplitudes))
        report = {
            "state": state_to_json(state),
            "norm": norm,
            "checks": [_check("normalized", norm, abs(norm - 1.0) <= cfg.tolerance, cfg.tolerance)],
        }
        return _emit(report, cfg, stdout)
    if action == "filter":
        pump = PumpConfig(delta_t=cfg.options["delta_t"], window=cfg.options["window"])
        filtered, keep = coincidence_filter(four_photon_state(), pump)
        report = {
            "keep_probability": keep,
            "filtered_state": state_to_json(filtered),
            "checks": [
                _check("keep_probability_1_2", keep, abs(keep - 0.5) <= cfg.tolerance, cfg.tolerance)
            ],
        }
        return _emit(report, cfg, stdout)
    if action == "stream":
        pump = PumpConfig(delta_t=cfg.options["delta_t"], window=cfg.options["window"])
        table = source_event_stream(pump, cfg.trials, seed=cfg.seed)
        agree = float(
            ((table.bins[:, 0] == table.bins[:, 1]) & (table.bins[:, 2] == table.bins[:, 3])).mean()
        )
        rate = table.selection_rate()
        sigma = math.sqrt(0.25 / cfg.trials)
        if cfg.output_path:
            table.write_csv(cfg.output_path)
        report = {
            "trials": cfg.trials,
            "seed": cfg.seed,
            "within_pair_agreement": agree,
            "fourfold_rate": rate,
            "events_csv": cfg.output_path,
            "checks": [
                _check("pairs_share_bins", agree, agree == 1.0),
                _check("fourfold_rate_1_2", rate, abs(rate - 0.5) <= 5.0 * sigma),
            ],
        }
        out_cfg = RunConfig(**{**cfg.__dict__, "output_path": None})
        return _emit(report, out_cfg, stdout)
    if action == "audit":
        model_name = cfg.options["model"]
        if model_name == "quantum":
            from .states import sample_measurement_events

            table = sample_measurement_events(ghz_state(3), trials=cfg.trials, seed=cfg.seed)
            report_audit = locality_audit(table)
            expect_dependent = False
        else:
            model = saturating_model()
            table = event_stream(model, cfg.trials, seed=cfg.seed)
            report_audit = locality_audit(table, ensemble=model)
            expect_dependent = True
        report = {
            "model": model_name,
            "trials": cfg.trials,
            "seed": cfg.seed,
            "per_party": [
                {
                    "party": p.party,
                    "counts": [list(row) for row in p.counts],
                    "chi2": p.chi2,
                    "p_value": p.p_value,
                    "dependent": p.dependent,
                }
                for p in report_audit.per_party
            ],
            "joint_p_value": report_audit.joint_p_value,
            "counterfactual_dependent": report_audit.counterfactual_dependent,
            "setting_dependent": report_audit.setting_dependent,
            "checks": [
                _check(
                    "loophole_detected" if expect_dependent else "no_setting_dependence",
                    report_audit.setting_dependent,
                    report_audit.setting_dependent == expect_dependent,
                )
            ],
        }
        return _emit(report, cfg, stdout)
    raise ValueError(f"unknown source action {action!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="etbell",
        description="Multiparty energy-time entanglement simulation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"etbell {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, trials=False):
        p.add_argument("--tol", type=float, default=None, help="check tolerance")
        p.add_argument("--out", type=str, default=None, help="output file path")
        p.add_argument("--seed", type=int, default=0)
        if trials:
            p.add_argument("--trials", type=int, default=10000)

    p = sub.add_parser("mermin-quantum", help="quantum Mermin value on GHZ")
    p.add_argument("--n", type=int, default=3, help="number of parties")
    p.add_argument(
        "--settings",
        type=str,
        default=None,
        help="'yx' (default, per-party sigma_y/sigma_x) or one Pauli char per party",
    )
    p.add_argument("--sweep", type=int, default=None, help="phase sweep points to CSV")
    p.add_argument("--sweep-out", type=str, default=None)
    add_common(p)

    p = sub.add_parser("lhv", help="local hidden-variable models")
    lhv_sub = p.add_subparsers(dest="action", required=True)
    q = lhv_sub.add_parser("table1", help="verify the saturating instruction model")
    add_common(q)
    q = lhv_sub.add_parser("search", help="exhaustive postselected-mu maximization")
    q.add_argument("--selection", choices=("dependent", "independent"), required=True)
    add_common(q)
    q = lhv_sub.add_parser("scale", help="model with a chosen postselected mu")
    q.add_argument("--target", type=float, required=True)
    add_common(q)
    q = lhv_sub.add_parser("stream", help="Monte-Carlo event stream")
    q.add_argument("--target", type=float, default=None, help="scaled-model target mu")
    add_common(q, trials=True)

    p = sub.add_parser("network", help="interferometer network tools")
    net_sub = p.add_subparsers(dest="action", required=True)
    q = net_sub.add_parser("dft", help="N-mode DFT unitary")
    q.add_argument("--n", "--levels", dest="n", type=int, required=True)
    add_common(q)
    q = net_sub.add_parser("analyzer", help="three-mode analyzer matrix")
    q.add_argument("--alpha", type=float, default=math.pi / 3)
    q.add_argument("--beta", type=float, default=math.pi / 3)
    q.add_argument("--gamma", type=float, default=-math.pi / 6)
    q.add_argument("--phi2", type=float, default=0.0)
    q.add_argument("--phi3", type=float, default=0.0)
    add_common(q)
    q = net_sub.add_parser("cascade", help="equal-splitting generation cascade")
    q.add_argument("--n", "--levels", dest="n", type=int, required=True)
    add_common(q)
    q = net_sub.add_parser("decompose", help="triangular mesh decomposition")
    q.add_argument("--in", dest="infile", type=str, required=True, help="matrix JSON")
    add_common(q)
    q = net_sub.add_parser("verify", help="unitarity check of a matrix/network file")
    q.add_argument("--in", dest="infile", type=str, required=True)
    add_common(q)

    p = sub.add_parser("source", help="pulsed-source model")
    src_sub = p.add_subparsers(dest="action", required=True)
    q = src_sub.add_parser("state", help="four-photon emission state")
    add_common(q)
    q = src_sub.add_parser("filter", help="coincidence-window filter")
    q.add_argument("--delta-t", type=float, default=1.0)
    q.add_argument("--window", type=float, default=0.1)
    add_common(q)
    q = src_sub.add_parser("stream", help="pair-emission event stream")
    q.add_argument("--delta-t", type=float, default=1.0)
    q.add_argument("--window", type=float, default=0.1)
    add_common(q, trials=True)
    q = src_sub.add_parser("audit", help="selection/setting locality audit")
    q.add_argument("--model", choices=("quantum", "table1"), default="quantum")
    add_common(q, trials=True)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {}
    for key in (
        "action", "settings", "sweep", "selection", "target", "infile",
        "alpha", "beta", "gamma", "phi2", "phi3", "model",
    ):
        if hasattr(args, key):
            options[key] = getattr(args, key)
    if hasattr(args, "sweep_out"):
        options["sweep_out"] = args.sweep_out
    if hasattr(args, "delta_t"):
        options["delta_t"] = args.delta_t
        options["window"] = args.window
    default_tol = {
        "mermin-quantum": 1e-12,
        "network": 1e-10,
        "source": 1e-12,
        "lhv": 1e-10,
    }.get(args.subcommand, 1e-10)
    return RunConfig(
        subcommand=args.subcommand,
        n_parties=getattr(args, "n", 3) if args.subcommand == "mermin-quantum" else 3,
        n_levels=getattr(args, "n", 3),
        trials=getattr(args, "trials", 10000),
        seed=getattr(args, "seed", 0),
        tolerance=default_tol if args.tol is None else args.tol,
        output_path=getattr(args, "out", None),
        options=options,
    )


_HANDLERS = {
    "mermin-quantum": cmd_mermin_quantum,
    "lhv": cmd_lhv,
    "network": cmd_network,
    "source": cmd_source,
}


def main(argv=None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return _HANDLERS[args.subcommand](cfg, stdout)
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
