import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

from etbell.events import EventTable
from etbell.lhv import (
    StrategyEnsemble,
    event_stream,
    saturating_model,
)
from etbell.source import (
    _chi2,
    chi2_sf,
    counterfactual_selection_dependence,
    four_photon_state,
    locality_audit,
    source_event_stream,
)
from etbell.states import (
    MultiPartyState,
    ghz_state,
    postselect_coincident,
    qunit_state,
    sample_measurement_events,
)

from conftest import dense_tensor, states_close, traced_peak


def test_four_photon_state_amplitudes():
    state = four_photon_state()
    assert state.dims == (2, 2, 2, 2)
    entries = dict(
        ("".join(labels), amp) for labels, amp in state.iter_amplitudes()
    )
    assert set(entries) == {"t0t0t0t0", "t1t1t1t1", "t0t0t1t1", "t1t1t0t0"}
    for amp in entries.values():
        assert amp == 0.5
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-15


def test_four_photon_pairs_perfectly_time_correlated():
    # marginal probability of the first pair disagreeing is exactly zero
    probs = np.abs(dense_tensor(four_photon_state())) ** 2
    assert probs[0, 1].sum() == 0.0
    assert probs[1, 0].sum() == 0.0
    assert probs[0, 0].sum() == pytest.approx(0.5)


def test_coincidence_filter_keeps_half():
    filtered, keep = postselect_coincident(four_photon_state())
    assert keep == 0.5
    entries = dict(
        ("".join(labels), amp) for labels, amp in filtered.iter_amplitudes()
    )
    assert set(entries) == {"t0t0t0t0", "t1t1t1t1"}
    for amp in entries.values():
        assert abs(amp - 1.0 / math.sqrt(2.0)) < 1e-15


def test_coincidence_filter_idempotent():
    # a second pass keeps the support; its amplitudes agree within rounding
    for state in (four_photon_state(), ghz_state(8), qunit_state(5), qunit_state(7)):
        once, keep1 = postselect_coincident(state)
        twice, keep2 = postselect_coincident(once)
        assert abs(keep2 - 1.0) < 1e-12
        assert states_close(twice, once, tol=1e-15)


def test_coincidence_filter_empty():
    lopsided = MultiPartyState((2, 2), [((0, 1), 1.0)], (("t0", "t1"),) * 2)  # |t0 t1>
    with pytest.raises(ValueError, match="postselection empty"):
        postselect_coincident(lopsided)


def test_source_stream_pairs_always_agree():
    table = source_event_stream(trials=50_000, seed=2)
    assert table.n_parties == 4
    assert (table.bins[:, 0] == table.bins[:, 1]).all()
    assert (table.bins[:, 2] == table.bins[:, 3]).all()
    rate = table.selection_rate()
    sigma = math.sqrt(0.25 / table.n_trials)
    assert abs(rate - 0.5) <= 3.0 * sigma
    assert (table.selected == (table.bins[:, 0] == table.bins[:, 2])).all()


def test_source_stream_deterministic():
    a = source_event_stream(trials=1000, seed=5)
    b = source_event_stream(trials=1000, seed=5)
    assert (a.bins == b.bins).all()
    with pytest.raises(ValueError):
        source_event_stream(trials=0, seed=5)


def test_source_stream_memory_past_the_table_is_the_pair_bins():
    # past the table's 13 bytes a trial, only the (trials, 2) int8 pair bins:
    # the selection compares the two pairs, not a (trials, 4) bin array
    past = []
    for trials in (20_000, 200_000):
        peak, table = traced_peak(source_event_stream, trials, seed=7)
        past.append(peak - sum(a.nbytes for a in (table.settings, table.bins, table.signs, table.selected)))
    assert past[1] <= past[0] + 3 * 180_000


@pytest.mark.parametrize("trials", [2.7, True, np.float64(3.0), "5"])
def test_source_stream_trial_count_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="^trial count must be an integer"):
        source_event_stream(trials, seed=5)


def test_audit_quantum_stream_passes():
    table = sample_measurement_events(ghz_state(3), trials=20_000, seed=6)
    report = locality_audit(table)
    assert not report.setting_dependent
    assert report.counterfactual_dependent is None
    for party in report.per_party:
        assert party.p_value >= 1e-3


def test_audit_saturating_model_detected_counterfactually():
    model = saturating_model()
    table = event_stream(model, 20_000, seed=7)
    report = locality_audit(table, ensemble=model)
    # the model mimics the quantum frequencies, so the chi-square tests see
    # nothing; only the counterfactual check exposes it
    assert report.counterfactual_dependent is True
    assert report.setting_dependent
    for party in report.per_party:
        assert party.p_value >= 1e-3


def test_audit_constant_selection_trivially_independent():
    ensemble = StrategyEnsemble(np.zeros((1, 3, 2), dtype=np.int8), np.ones((1, 3, 2), dtype=np.int8), (1,))
    table = event_stream(ensemble, 5_000, seed=8)
    assert table.selected.all()
    report = locality_audit(table, ensemble=ensemble)
    assert not report.setting_dependent
    assert report.counterfactual_dependent is False
    assert report.joint_p_value == 1.0


def test_counterfactual_dependence_logic():
    assert counterfactual_selection_dependence(saturating_model())
    # fixed bins S, L, S: rejected under every combination
    fixed = StrategyEnsemble([[[0, 0], [1, 1], [0, 0]]], [[[1, -1], [1, 1], [-1, -1]]], (1,))
    assert not counterfactual_selection_dependence(fixed)
    # a setting-dependent strategy counts only while its weight is positive
    dependent = [[0, 1], [0, 0], [0, 0]]
    mixed = StrategyEnsemble([[[0, 0]] * 3, dependent], [[[1, 1]] * 3] * 2, (Fraction(1), Fraction(0)))
    assert not counterfactual_selection_dependence(mixed)


def test_audit_detects_crude_setting_dependence():
    # a stream whose selection is literally the first party's setting
    rng = np.random.default_rng(3)
    trials = 4000
    settings = rng.integers(0, 2, size=(trials, 3), dtype=np.int8)
    bins = np.zeros((trials, 3), dtype=np.int8)
    signs = np.ones((trials, 3), dtype=np.int8)
    selected = settings[:, 0].astype(bool)
    table = EventTable(settings, bins, signs, selected)
    report = locality_audit(table)
    assert report.per_party[0].dependent
    assert report.setting_dependent


def _reference_audit(table):
    """Two masks per party and one per setting combination, each over every
    trial: the counts the audit's single bincount must match exactly."""
    per_party = []
    for p in range(table.n_parties):
        counts = np.zeros((2, 2), dtype=np.int64)
        for setting in (0, 1):
            mask = table.settings[:, p] == setting
            counts[setting] = (mask & ~table.selected).sum(), (mask & table.selected).sum()
        per_party.append(counts)
    joint = []
    # the first party's setting is the lowest bit of the combination code
    for combo in itertools.product((0, 1), repeat=table.n_parties):
        mask = (table.settings == combo[::-1]).all(axis=1)
        joint.append([(mask & ~table.selected).sum(), (mask & table.selected).sum()])
    return per_party, np.array(joint, dtype=np.int64)


@st.composite
def audit_tables(draw):
    parties = draw(st.integers(min_value=1, max_value=5))
    trials = draw(st.integers(min_value=0, max_value=60))
    bits = draw(st.lists(st.integers(0, 1), min_size=trials * parties, max_size=trials * parties))
    settings = np.array(bits, dtype=int).reshape(trials, parties)
    selection = draw(st.sampled_from(["drawn", "all", "none"]))
    if selection == "drawn":
        flags = draw(st.lists(st.booleans(), min_size=trials, max_size=trials))
    else:
        flags = [selection == "all"] * trials
    return EventTable(settings, np.zeros_like(settings), np.ones_like(settings), flags)


@given(table=audit_tables())
@settings(max_examples=150, deadline=None)
def test_audit_counts_match_mask_reference(table):
    per_party, joint = _reference_audit(table)
    report = locality_audit(table)
    for party, counts in zip(report.per_party, per_party, strict=True):
        assert party.counts == tuple(map(tuple, counts.tolist()))
        assert (party.chi2, party.p_value) == _chi2(counts)
    assert (report.joint_chi2, report.joint_p_value) == _chi2(joint)


def test_chi2_sf_matches_scipy():
    xs = np.linspace(0.0, 200.0, 801)
    for df in range(1, 16):
        ours = np.array([chi2_sf(float(x), df) for x in xs])
        np.testing.assert_allclose(ours, chi2.sf(xs, df), rtol=1e-10, atol=0.0)


def test_chi2_sf_rejects_bad_degrees_of_freedom():
    for df in (0, -1, 1.5):
        with pytest.raises(ValueError):
            chi2_sf(1.0, df)


def test_chi2_statistic_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(2000):
        shape = (int(rng.integers(1, 9)), 2)
        table = rng.integers(0, 60, size=shape) * (rng.random(shape) < 0.85)
        stat, p_value = _chi2(table)
        trimmed = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
        if min(trimmed.shape) < 2:
            assert (stat, p_value) == (0.0, 1.0)
            continue
        ref = chi2_contingency(trimmed, correction=False)
        assert stat == ref.statistic
        assert p_value == pytest.approx(ref.pvalue, rel=1e-10, abs=0.0)
