"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is pinned here, not configurable.
"""

import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from etbell.cli import main as cli_main
from etbell.events import mermin_estimate
from etbell.lhv import (
    evaluate_postselected,
    event_stream,
    marginal_distribution,
    max_mu_setting_dependent,
    max_mu_setting_independent,
    saturating_model,
    scaled_model,
)
from etbell.numerics import unitarity_defect
from etbell.optics import (
    InterferometerNetwork,
    analyzer_matrix,
    beam_splitter,
    compose,
    dft_unitary,
    generation_cascade,
    qutrit_analyzer_network,
    reck_decompose,
)
from etbell.source import four_photon_state, source_event_stream
from etbell.states import (
    ghz_state,
    mermin3,
    postselect_coincident,
    prepare_postselected,
    qunit_state,
    stabilizer_expectations,
    standard_settings,
)

from conftest import (
    analyzer_closed_form,
    dft_literal,
    measurement_basis_literal,
    random_unitary,
)


def _verdict(number: int, description: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_quantum_mermin_value():
    flat = [obs for pair in standard_settings(3) for obs in pair]
    result = mermin3(ghz_state(3), *flat)
    ok = abs(result.mu - 4.0) <= 1e-12
    _verdict(1, f"quantum Mermin value mu = {result.mu!r} within 1e-12 of 4", ok)


def test_criterion_02_ghz_stabilizers():
    values = stabilizer_expectations(ghz_state(3))
    ok = all(abs(v + 1.0) <= 1e-12 for v in values)
    _verdict(2, f"all four GHZ correlation operators at -1: {values}", ok)


def test_criterion_03_saturating_model_exact():
    model = saturating_model()
    corr = evaluate_postselected(model)
    marginals = marginal_distribution(model)
    ok = (
        corr.terms == (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))
        and corr.mu == 4
        and isinstance(corr.mu, Fraction)
        and corr.selection_rate == Fraction(1, 4)
        and 1 - corr.selection_rate == Fraction(3, 4)
        and all(
            len(dist) == 4 and all(w == Fraction(1, 4) for w in dist.values())
            for dist in marginals.values()
        )
    )
    _verdict(
        3,
        f"instruction model: terms {tuple(map(str, corr.terms))}, mu = {corr.mu} exact, "
        f"selection rate {corr.selection_rate}, rejection {1 - corr.selection_rate}, uniform marginals",
        ok,
    )


def test_criterion_04_loophole_separation():
    dependent = max_mu_setting_dependent()
    independent = max_mu_setting_independent()
    ok = (
        dependent.mu_max == 4
        and dependent.strategies_examined == 4096
        and independent.mu_max == 2
        and independent.strategies_examined == 512
    )
    _verdict(
        4,
        f"full enumeration: setting-dependent max {dependent.mu_max} over "
        f"{dependent.strategies_examined}, setting-independent max {independent.mu_max} "
        f"over {independent.strategies_examined} (gap 4 > 2)",
        ok,
    )


def test_criterion_05_scaled_models():
    targets = (0.0, 1.0, 2.0, 2.0 * math.sqrt(2.0), 3.0, 4.0)
    errors = []
    for target in targets:
        corr = evaluate_postselected(scaled_model(target))
        errors.append(abs(float(corr.mu) - target))
    ok = max(errors) <= 1e-9
    _verdict(5, f"scaled models hit targets {targets}, max error {max(errors):.2e}", ok)


def test_criterion_06_analyzer_algebra():
    rng = np.random.default_rng(20260810)
    worst = 0.0
    for _ in range(100):
        alpha, beta, gamma = rng.uniform(-math.pi, math.pi, size=3)
        got = compose(qutrit_analyzer_network(alpha, beta, gamma))
        worst = max(worst, float(np.abs(got - analyzer_closed_form(alpha, beta, gamma)).max()))
    dft_err = float(
        np.abs(compose(qutrit_analyzer_network()) - dft_unitary(3)).max()
    )
    ok = worst <= 1e-12 and dft_err <= 1e-12
    _verdict(
        6,
        f"analyzer cascade matches closed form on 100 phase triples "
        f"(worst {worst:.2e}) and equals the 3-mode DFT (err {dft_err:.2e})",
        ok,
    )


def test_criterion_07_measurement_basis():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        phis = rng.uniform(-math.pi, math.pi, size=2)
        got = analyzer_matrix(3, phis).conj()
        want = measurement_basis_literal(3, phis)
        for g, w in zip(got, want):
            worst = max(worst, float(np.abs(g - w).max()))
    gram_worst = 0.0
    general_worst = 0.0
    for n in range(2, 7):
        phis = rng.uniform(-math.pi, math.pi, size=n - 1)
        vectors = analyzer_matrix(n, phis).conj()
        gram = np.array([[np.vdot(v, w) for w in vectors] for v in vectors])
        gram_worst = max(gram_worst, float(np.abs(gram - np.eye(n)).max()))
        for g, w in zip(vectors, measurement_basis_literal(n, phis)):
            general_worst = max(general_worst, float(np.abs(g - w).max()))
    ok = worst <= 1e-12 and gram_worst <= 1e-12 and general_worst <= 1e-12
    _verdict(
        7,
        f"measurement bases match the defining formulas (3-level worst {worst:.2e}, "
        f"N=2..6 worst {general_worst:.2e}) and are orthonormal ({gram_worst:.2e})",
        ok,
    )


def test_criterion_08_cascade_splitting():
    worst = 0.0
    for n in range(2, 9):
        amps = compose(generation_cascade(n))[:, 0]
        worst = max(worst, float(np.abs(np.abs(amps) - 1.0 / math.sqrt(n)).max()))
    reflectivities = [el.reflectivity for el in generation_cascade(3).elements]
    ok = worst <= 1e-12 and reflectivities == [1.0 / 3.0, 0.5]
    _verdict(
        8,
        f"cascades n=2..8 split to |amp| = 1/sqrt(n) (worst {worst:.2e}); "
        f"n=3 reflectivities {reflectivities}",
        ok,
    )


def test_criterion_09_reck_round_trip():
    worst = 0.0
    for n in range(2, 9):
        u = dft_unitary(n)
        dec = reck_decompose(u)
        worst = max(worst, float(np.abs(dec.reconstruct() - u).max()))
    for k in range(50):
        n = 2 + k % 7
        u = random_unitary(n, seed=31_000 + k)
        dec = reck_decompose(u)
        worst = max(worst, float(np.abs(dec.reconstruct() - u).max()))
    ok = worst <= 1e-9
    _verdict(
        9,
        f"mesh decomposition round-trips DFT(2..8) and 50 seeded unitaries, "
        f"max entry error {worst:.2e}",
        ok,
    )


def test_criterion_10_postselected_preparation():
    splitter = InterferometerNetwork(2, (beam_splitter(0, 1, 0.5),))
    ghz, prob = prepare_postselected([splitter] * 3)
    qutrit, _ = prepare_postselected([generation_cascade(3)] * 3)
    ghz_err = float(np.abs(ghz.amplitudes - ghz_state(3).amplitudes).max())
    qutrit_err = float(np.abs(qutrit.amplitudes - qunit_state(3).amplitudes).max())
    ok = ghz_err <= 1e-12 and abs(prob - 0.25) <= 1e-12 and qutrit_err <= 1e-12
    _verdict(
        10,
        f"postselection prepares the GHZ state (err {ghz_err:.2e}, probability {prob}) "
        f"and the three-level state (err {qutrit_err:.2e})",
        ok,
    )


def test_criterion_11_source_model():
    state = four_photon_state()
    entries = dict(("".join(l), a) for l, a in state.iter_amplitudes())
    state_ok = set(entries) == {
        "t0t0t0t0",
        "t1t1t1t1",
        "t0t0t1t1",
        "t1t1t0t0",
    } and all(a == 0.5 for a in entries.values())
    _, keep = postselect_coincident(state)
    table = source_event_stream(trials=1_000_000, seed=11)
    agreement = float(
        (
            (table.bins[:, 0] == table.bins[:, 1])
            & (table.bins[:, 2] == table.bins[:, 3])
        ).mean()
    )
    model = scaled_model(2.0 * math.sqrt(2.0))
    exact = evaluate_postselected(model)
    est = mermin_estimate(event_stream(model, 1_000_000, seed=13))
    mc_ok = True
    for got, want, n_sel in zip(est.terms, exact.terms, est.selected_counts):
        sigma = math.sqrt((1.0 - float(want) ** 2) / n_sel)
        mc_ok = mc_ok and abs(got - float(want)) <= 3.0 * sigma
    sat = mermin_estimate(event_stream(saturating_model(), 1_000_000, seed=17))
    mc_ok = mc_ok and sat.mu == 4.0
    ok = state_ok and keep == 0.5 and agreement == 1.0 and mc_ok
    _verdict(
        11,
        f"four-photon state exact, filter keep = {keep}, within-pair agreement "
        f"{agreement:.6f} over 1e6 trials, Monte-Carlo terms within 3 sigma "
        f"(saturating-model mu_hat = {sat.mu})",
        ok,
    )


def test_criterion_12_cli_reproducibility(tmp_path):
    out = tmp_path / "events.csv"
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        code = cli_main(
            ["lhv", "stream", "--trials", "40000", "--seed", "97", "--out", str(out)],
            stdout=buf,
        )
        assert code == 0
        outputs.append((buf.getvalue(), out.read_bytes()))
    json_ok = outputs[0][0] == outputs[1][0]
    csv_ok = outputs[0][1] == outputs[1][1]
    report_ok = True
    for argv in (
        ["mermin-quantum"],
        ["source", "audit", "--model", "quantum", "--trials", "4000", "--seed", "3"],
    ):
        report_outputs = []
        for _ in range(2):
            buf = io.StringIO()
            cli_main(argv, stdout=buf)
            report_outputs.append(buf.getvalue())
        report_ok = report_ok and report_outputs[0] == report_outputs[1]
    ok = json_ok and csv_ok and report_ok
    _verdict(
        12,
        "identical seeded CLI runs are byte-identical (JSON report and event CSV)",
        ok,
    )
