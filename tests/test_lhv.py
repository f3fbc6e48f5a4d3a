import hashlib
import itertools
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from etbell.events import mermin_coefficients, mermin_estimate
from etbell.lhv import (
    BINS,
    PostselectedCorrelations,
    SearchResult,
    StrategyEnsemble,
    _instructions,
    combo_outcomes,
    ensemble_from_json,
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
from etbell.source import counterfactual_selection_dependence

# One party's instructions as ((bin0, bin1), (sign0, sign1)), bins as codes
# into BINS, in nested-loop order over setting 0's then setting 1's
# (bin, sign) with S before L and + before -.
INSTRUCTIONS = [
    ((b0, b1), (s0, s1))
    for b0, s0, b1, s1 in itertools.product((0, 1), (1, -1), (0, 1), (1, -1))
]
FIXED_BIN = [instr for instr in INSTRUCTIONS if instr[0][0] == instr[0][1]]
ALL_S_PLUS = ((0, 0), (1, 1))
MERMIN3 = tuple(mermin_coefficients(3))


def _table(strategies):
    """(bins, signs) arrays of joint strategies given as per-party instructions."""
    strategies = list(strategies)
    bins = np.array([[instr[0] for instr in s] for s in strategies], dtype=np.int8)
    signs = np.array([[instr[1] for instr in s] for s in strategies], dtype=np.int8)
    return bins, signs


def _uniform(strategies):
    bins, signs = _table(strategies)
    return StrategyEnsemble(bins, signs, (Fraction(1, len(bins)),) * len(bins))


def _single(*instructions):
    return _uniform([instructions])


def _profiles(strategies):
    """Per-combination outcome of each joint strategy under the three-party
    Mermin combinations: its sign product where selected, 0 where rejected."""
    bins, signs = _table(strategies)
    return np.array(combo_outcomes(bins.tolist(), signs.tolist(), MERMIN3))


def _mu(profiles):
    """|t1 + t2 + t3 - t4| of each profile row."""
    return np.abs(profiles[:, 0] + profiles[:, 1] + profiles[:, 2] - profiles[:, 3])


def test_instruction_enumerations():
    # The search witnesses are the first matches in this order.
    instructions = _instructions()
    assert instructions == INSTRUCTIONS
    assert [instr for instr in instructions if instr[0][0] == instr[0][1]] == FIXED_BIN


def test_instruction_validation():
    bins, signs = _table([(ALL_S_PLUS,) * 3])
    for bad_bins in (bins + 2, bins - 1, bins.astype(bool), bins.reshape(1, 3, 2, 1), bins[:, :, :1]):
        with pytest.raises(ValueError, match="^bins must"):
            StrategyEnsemble(bad_bins, signs, (1,))
    for bad_signs in (signs + 1, 0 * signs, signs.astype(bool), signs.astype(np.float64)):
        with pytest.raises(ValueError, match="^signs must"):
            StrategyEnsemble(bins, bad_signs, (1,))
    # a bool is not an integer code, in a list as in an array
    with pytest.raises(ValueError, match="^bins must be an integer array"):
        StrategyEnsemble([[[True, 1]]], [[[1, -1]]], (1,))
    with pytest.raises(ValueError, match="^signs must be an integer array"):
        StrategyEnsemble([[[0, 1]]], [[[True, -1]]], (1,))
    with pytest.raises(ValueError, match="share one shape"):
        StrategyEnsemble(bins, signs[:, :2], (1,))
    with pytest.raises(ValueError, match=r"^bins must have shape \(2, parties, 2\), got \(1, 3, 2\)$"):
        StrategyEnsemble(bins, signs, (Fraction(1, 2),) * 2)
    with pytest.raises(ValueError, match=r"^bins must have shape"):
        StrategyEnsemble(bins[:, :0], signs[:, :0], (1,))
    # a ragged table is refused by name, with uneven party or setting counts
    half = (Fraction(1, 2),) * 2
    for bad_bins in ([[[0, 1]], [[0, 1], [1, 0]]], [[[0, 1]], [[1]]]):
        with pytest.raises(ValueError, match=r"^bins must have shape \(2, parties, 2\), got ragged"):
            StrategyEnsemble(bad_bins, [[[1, 1]]] * 2, half)
    with pytest.raises(ValueError, match=r"^signs must have shape \(2, parties, 2\), got ragged"):
        StrategyEnsemble([[[0, 1]]] * 2, [[[1, -1]], [[1, 1, 1]]], half)


def test_ensemble_validation():
    none = np.zeros((0, 3, 2), dtype=np.int8)
    with pytest.raises(ValueError, match="cannot be empty"):
        StrategyEnsemble(none, none, ())
    bins, signs = _table([(ALL_S_PLUS,) * 3])
    with pytest.raises(ValueError, match="sum to 1"):
        StrategyEnsemble(bins, signs, (Fraction(1, 2),))
    with pytest.raises(ValueError, match="nonnegative"):
        StrategyEnsemble(
            np.concatenate([bins, bins]), np.concatenate([signs, signs]),
            (Fraction(3, 2), Fraction(-1, 2)),
        )


def _records():
    """One of each lhv record, with its field names in order."""
    search = max_mu_setting_independent()
    return [
        (search.witness, ("bin_table", "sign_table", "weights")),
        (search.correlations, ("terms", "mu", "selection_rate", "selected_fractions")),
        (search, ("mu_max", "witness", "correlations", "strategies_examined")),
    ]


@pytest.mark.parametrize("k", range(3), ids=["StrategyEnsemble", "PostselectedCorrelations", "SearchResult"])
def test_records_are_immutable(k):
    record, fields = _records()[k]
    before = [getattr(record, name) for name in fields]
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = None
    assert [getattr(record, name) for name in fields] == before


def test_records_keep_their_fields_and_keyword_construction():
    (ensemble, ensemble_fields), (corr, corr_fields), (search, search_fields) = _records()
    assert tuple(vars(ensemble)) == ensemble_fields
    assert PostselectedCorrelations.__match_args__ == corr_fields
    assert SearchResult.__match_args__ == search_fields
    again = StrategyEnsemble(bins=ensemble.bin_table, signs=ensemble.sign_table, weights=ensemble.weights)
    assert vars(again) == vars(ensemble)
    assert PostselectedCorrelations(**{name: getattr(corr, name) for name in corr_fields}) == corr
    assert SearchResult(**{name: getattr(search, name) for name in search_fields}) == search
    assert corr.undefined_terms == ()


def test_saturating_model_exact_numbers():
    model = saturating_model()
    assert model.size == 512
    corr = evaluate_postselected(model)
    assert corr.terms == (Fraction(1), Fraction(1), Fraction(1), Fraction(-1))
    assert corr.mu == 4
    assert isinstance(corr.mu, Fraction)
    assert corr.selection_rate == Fraction(1, 4)
    assert 1 - corr.selection_rate == Fraction(3, 4)
    assert corr.selected_fractions == (Fraction(1, 4),) * 4
    assert corr.undefined_terms == ()


def test_saturating_model_uniform_marginals():
    marginals = marginal_distribution(saturating_model())
    assert set(marginals) == {(p, s) for p in range(3) for s in (0, 1)}
    for dist in marginals.values():
        assert set(dist) == {"S+", "S-", "L+", "L-"}
        assert all(weight == Fraction(1, 4) for weight in dist.values())


def test_evaluate_single_all_s_plus():
    corr = evaluate_postselected(_single(*(ALL_S_PLUS,) * 3))
    assert corr.terms == (1, 1, 1, 1)
    assert corr.mu == 2
    assert corr.selection_rate == 1


def test_evaluate_uniform_signs_fixed_bins_vanishes():
    strategies = [
        (((0, 0), (sa, sa)), ((0, 0), (sb, sb)), ((0, 0), (sc, sc)))
        for sa in (1, -1)
        for sb in (1, -1)
        for sc in (1, -1)
    ]
    corr = evaluate_postselected(_uniform(strategies))
    assert corr.terms == (0, 0, 0, 0)
    assert corr.mu == 0
    assert corr.selection_rate == 1


def test_undefined_terms_are_flagged_not_zeroed():
    # C sits in S for setting 0 and L for setting 1: combos with c-setting 1
    # never coincide with the all-S parties, so terms 1 and 4 are undefined.
    c = ((0, 1), (1, 1))
    corr = evaluate_postselected(_single(ALL_S_PLUS, ALL_S_PLUS, c))
    assert corr.undefined_terms == (0, 3)
    assert corr.terms[0] is None
    assert corr.terms[1] == 1
    assert corr.mu is None


def test_strategy_profile_matches_evaluation():
    c = ((0, 1), (1, 1))
    profiles = _profiles([(ALL_S_PLUS, ALL_S_PLUS, ALL_S_PLUS), (ALL_S_PLUS, ALL_S_PLUS, c)])
    assert profiles.tolist() == [[1, 1, 1, 1], [0, 1, 1, 0]]


@pytest.mark.parametrize(
    "build, size, digest",
    [
        (saturating_model, 512, "74c2b75b13f98a5b71df984fa030053a3c825e3e401c6012b43afac83ea39073"),
        (lambda: scaled_model(1), 1024, "91435250374fb250c1b8cf3cefb4cba17c6ca359327815211464e2d506c1958a"),
        (lambda: max_mu_setting_dependent().witness, 4, "d80870c31f5fab5777bf51988662aa2da6697f64f55a83801fcef2040d158ce0"),
        (lambda: max_mu_setting_independent().witness, 1, "f3528eef1a3a81b1a63d743dbde725163f8764318fb03acc9138ba5d188f97d8"),
    ],
    ids=["saturating", "scaled_1", "dependent_witness", "independent_witness"],
)
def test_ensemble_strategies_and_weights_are_pinned(build, size, digest):
    # The exact strategies, their order and their weights: the seeded
    # `lhv stream` and `source audit` outputs depend on all three.
    ensemble = build()
    assert ensemble.size == size
    text = json.dumps(ensemble_to_json(ensemble), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_max_mu_setting_dependent():
    result = max_mu_setting_dependent()
    assert result.mu_max == 4
    assert result.strategies_examined == 16**3
    corr = result.correlations
    assert corr.terms == (1, 1, 1, -1)
    assert corr.mu == 4
    assert corr.selection_rate == Fraction(1, 4)


def test_max_mu_setting_independent():
    result = max_mu_setting_independent()
    assert result.mu_max == 2
    assert result.strategies_examined == 8**3
    assert result.correlations.mu == 2
    assert result.correlations.selection_rate == 1


def test_deterministic_strategy_census():
    # Over all 4096 joint strategies: every defined term is +/-1, and any
    # strategy selected under all four combinations scores exactly mu = 2.
    profiles = _profiles(itertools.product(INSTRUCTIONS, repeat=3))
    assert profiles.shape == (16**3, 4)
    assert set(np.unique(profiles)) <= {-1, 0, 1}
    all_selected = (profiles != 0).all(axis=1)
    assert all_selected.any()
    assert set(_mu(profiles[all_selected]).tolist()) == {2}


def test_fixed_bin_enumeration_never_exceeds_two():
    profiles = _profiles(itertools.product(FIXED_BIN, repeat=3))
    assert profiles.shape == (8**3, 4)
    # selection is the same for every combination
    selected = profiles != 0
    assert (selected == selected[:, :1]).all()
    assert (_mu(profiles[selected[:, 0]]) <= 2).all()


def test_random_fixed_bin_mixtures_bounded_by_two():
    profiles = _profiles(itertools.product(FIXED_BIN, repeat=3))
    selected = profiles[:, 0] != 0
    mvals = profiles[:, 0] + profiles[:, 1] + profiles[:, 2] - profiles[:, 3]
    rng = np.random.default_rng(99)
    total = 0
    for _ in range(10):
        weights = rng.exponential(size=(10**4, len(profiles)))
        weights /= weights.sum(axis=1, keepdims=True)
        w_sel = weights[:, selected]
        mu = np.abs(w_sel @ mvals[selected]) / w_sel.sum(axis=1)
        assert (mu <= 2.0 + 1e-12).all()
        total += len(mu)
    assert total == 10**5


@pytest.mark.parametrize("target", [0, 1, 2, 2 * math.sqrt(2), 3, 4])
def test_scaled_model_hits_target(target):
    corr = evaluate_postselected(scaled_model(target))
    assert corr.mu is not None
    assert abs(float(corr.mu) - target) <= 1e-9


def test_scaled_model_extremes():
    with pytest.raises(ValueError):
        scaled_model(-0.1)
    with pytest.raises(ValueError):
        scaled_model(4.1)
    pure = scaled_model(4)
    base = saturating_model()
    # weight mass beyond the base model is exactly zero at target 4
    extra = sum(pure.weights[base.size:])
    assert extra == 0
    assert evaluate_postselected(pure).terms == evaluate_postselected(base).terms


def test_event_stream_deterministic():
    model = saturating_model()
    a = event_stream(model, 3000, seed=21)
    b = event_stream(model, 3000, seed=21)
    assert (a.settings == b.settings).all()
    assert (a.bins == b.bins).all()
    assert (a.signs == b.signs).all()
    assert (a.selected == b.selected).all()
    c = event_stream(model, 3000, seed=22)
    assert not (a.settings == c.settings).all()


def test_event_stream_all_s_always_selected():
    table = event_stream(_single(*(ALL_S_PLUS,) * 3), 500, seed=0)
    assert table.selected.all()
    assert (table.signs == 1).all()


def test_event_stream_estimates_match_exact():
    model = saturating_model()
    table = event_stream(model, 50_000, seed=8)
    est = mermin_estimate(table)
    # conditional sign products of this model are deterministic
    assert est.terms == (1.0, 1.0, 1.0, -1.0)
    assert est.mu == 4.0
    rate = table.selection_rate()
    sigma = math.sqrt(0.25 * 0.75 / table.n_trials)
    assert abs(rate - 0.25) <= 3.0 * sigma + 1e-9


def test_event_stream_scaled_model_within_three_sigma():
    target = 2.0 * math.sqrt(2.0)
    model = scaled_model(target)
    exact = evaluate_postselected(model)
    table = event_stream(model, 100_000, seed=31)
    est = mermin_estimate(table)
    for got, want, n_sel in zip(est.terms, exact.terms, est.selected_counts):
        sigma = math.sqrt((1.0 - float(want) ** 2) / n_sel)
        assert abs(got - float(want)) <= 3.0 * sigma + 1e-12


def _same_ensemble(a, b):
    return a.bin_table == b.bin_table and a.sign_table == b.sign_table and a.weights == b.weights


def test_ensemble_json_round_trip():
    model = scaled_model(1)
    again = ensemble_from_json(ensemble_to_json(model))
    assert _same_ensemble(again, model)
    corr = evaluate_postselected(again)
    assert float(corr.mu) == 1.0


@pytest.mark.parametrize(
    "bins, signs",
    [
        (("S", "L"), (1.7, -1)),
        (("S", "L"), (1.0, -1)),
        (("S", "L"), (True, -1)),
        (("S", "L"), ("1", -1)),
        ("SL", (1, -1)),
    ],
)
def test_instruction_rejects_coerced_fields(bins, signs):
    field = "bins" if isinstance(bins, str) else "signs"
    party = {"bins": bins if isinstance(bins, str) else list(bins), "signs": list(signs)}
    with pytest.raises(ValueError, match=rf"^entries\[0\]\.parties\[0\]\.{field} must"):
        ensemble_from_json({"entries": [{"parties": [party], "weight": "1"}]})
    codes = bins if isinstance(bins, str) else [[[BINS.index(b) for b in bins]]]
    with pytest.raises(ValueError, match=f"^{field} must be an integer array"):
        StrategyEnsemble(codes, [[signs]], (1,))


def test_instruction_accepts_numpy_integer_signs():
    for dtype in (np.int8, np.int64, np.uint8):
        ensemble = StrategyEnsemble(
            np.array([[[0, 1]]], dtype=dtype), np.array([[[1, -1]]]).astype(np.int64), (1,)
        )
        assert ensemble.bin_table == (((0, 1),),) and ensemble.sign_table == (((1, -1),),)
        assert {type(x) for table in (ensemble.bin_table, ensemble.sign_table) for x in table[0][0]} == {int}
        assert ensemble_to_json(ensemble)["entries"][0]["parties"] == [{"bins": ["S", "L"], "signs": [1, -1]}]


def test_numpy_integer_weights_beside_large_denominators():
    # a numpy integer weight must not narrow the common denominator to int64
    weights = (np.int64(0), Fraction(2**70 - 1, 2**70), Fraction(1, 2**70))
    ensemble = StrategyEnsemble([[[0, 0]]] * 3, [[[1, 1]]] * 3, weights)
    assert evaluate_postselected(ensemble).selected_fractions == (1,)
    assert marginal_distribution(ensemble)[(0, 0)] == {"S+": 1}


def test_ensemble_rejects_bool_weights():
    bins, signs = _table([(ALL_S_PLUS,) * 3])
    with pytest.raises(ValueError, match=r"\(not a bool\), got True$"):
        StrategyEnsemble(bins, signs, (True,))


_DROP = object()
_ONE_PARTY_ENTRY = {"parties": [{"bins": ["S", "S"], "signs": [1, 1]}], "weight": "0"}


def _edited(path, value=_DROP):
    """An edit of an ensemble's JSON that sets (or drops) the field at ``path``."""

    def edit(data):
        node = data
        for key in path[:-1]:
            node = node[key]
        if value is _DROP:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        return data

    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda data: [data], "ensemble"),
        (_edited(("extra",), 1), "extra"),
        (_edited(("entries",), {"parties": []}), "entries"),
        (_edited(("entries",), "abc"), "entries"),
        (_edited(("entries", 0), [1, 2]), "entries[0]"),
        (_edited(("entries", 0, "note"), "x"), "note"),
        (_edited(("entries", 0, "weight")), "weight"),
        (_edited(("entries", 0, "parties"), "SS"), "entries[0].parties"),
        (_edited(("entries", 0, "parties"), []), "entries[0].parties"),
        (_edited(("entries", 0, "parties", 1), ["S", "S"]), "entries[0].parties[1]"),
        (lambda data: {"entries": data["entries"] + [_ONE_PARTY_ENTRY]}, "entries[1].parties"),
        (_edited(("entries", 0, "parties", 1, "tag"), 0), "tag"),
        (_edited(("entries", 0, "parties", 1, "bins"), "SS"), "entries[0].parties[1].bins"),
        (_edited(("entries", 0, "parties", 1, "signs"), [1.7, -1]), "entries[0].parties[1].signs"),
        (_edited(("entries", 0, "parties", 1, "signs"), [True, -1]), "entries[0].parties[1].signs"),
        (_edited(("entries", 0, "parties", 1, "signs"), 1), "entries[0].parties[1].signs"),
        (_edited(("entries", 0, "weight"), True), "entries[0].weight"),
        (_edited(("entries", 0, "weight"), float("nan")), "entries[0].weight"),
        (_edited(("entries", 0, "weight"), "one"), "entries[0].weight"),
        (_edited(("entries", 0, "weight"), "1/0"), "entries[0].weight"),
        (_edited(("entries", 0, "weight"), None), "entries[0].weight"),
    ],
)
def test_ensemble_from_json_rejects_malformed_input(edit, field):
    data = edit(ensemble_to_json(_single(*(ALL_S_PLUS,) * 3)))
    with pytest.raises(ValueError) as exc:
        ensemble_from_json(data)
    assert field in str(exc.value)


@pytest.mark.parametrize("weight", [1, 1.0, 0.5])
def test_ensemble_from_json_refuses_number_weights(weight):
    # the one wire form of a weight is an exact fraction string
    data = ensemble_to_json(_single(*(ALL_S_PLUS,) * 3))
    data["entries"][0]["weight"] = weight
    with pytest.raises(ValueError, match=rf"^entries\[0\]\.weight must be a fraction string, got {weight}$"):
        ensemble_from_json(data)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2)])
def test_mermin_classical_bound_enumeration(n, expected):
    assert mermin_classical_bound(n) == expected


def _tables(k, n):
    """Hypothesis strategy for a (bins, signs) pair of (k, n, 2) tables."""
    return st.tuples(
        arrays(np.int8, (k, n, 2), elements=st.integers(0, 1)),
        arrays(np.int8, (k, n, 2), elements=st.sampled_from((1, -1))),
    )


@st.composite
def small_ensembles(draw):
    k = draw(st.integers(min_value=1, max_value=5))
    bins, signs = draw(_tables(k, 3))
    weights = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=k, max_size=k))
    total = sum(weights)
    return StrategyEnsemble(bins, signs, tuple(Fraction(w, total) for w in weights))


@given(ensemble=small_ensembles())
@settings(max_examples=60, deadline=None)
def test_random_ensembles_respect_bounds(ensemble):
    corr = evaluate_postselected(ensemble)
    for term, fraction in zip(corr.terms, corr.selected_fractions):
        assert 0 <= fraction <= 1
        if term is not None:
            assert -1 <= term <= 1
    if corr.mu is not None:
        assert 0 <= corr.mu <= 4
    assert 0 <= corr.selection_rate <= 1


# Per-strategy loops written out one scalar at a time: the reference the
# column sums of evaluate_postselected, marginal_distribution and
# counterfactual_selection_dependence are checked against.
def _coincide(bins):
    return all(b == bins[0] for b in bins[1:])


def _oracle_evaluate(ensemble, combos):
    selected = [0] * len(combos)
    product = [0] * len(combos)
    parties = range(ensemble.n_parties)
    for k, weight in enumerate(ensemble.weights):
        for c, combo in enumerate(combos):
            if _coincide([ensemble.bin_table[k][p][combo[p]] for p in parties]):
                sign = math.prod(ensemble.sign_table[k][p][combo[p]] for p in parties)
                selected[c] += weight
                product[c] += weight * sign
    terms = [p / w if w > 0 else None for p, w in zip(product, selected)]
    return terms, selected


def _oracle_marginals(ensemble):
    out = {(p, s): {} for p in range(ensemble.n_parties) for s in (0, 1)}
    for k, weight in enumerate(ensemble.weights):
        for p in range(ensemble.n_parties):
            for s in (0, 1):
                bucket = out[(p, s)]
                token = BINS[ensemble.bin_table[k][p][s]] + ("+" if ensemble.sign_table[k][p][s] > 0 else "-")
                bucket[token] = bucket.get(token, 0) + weight
    return out


def _oracle_counterfactual(ensemble):
    parties = range(ensemble.n_parties)
    for k, weight in enumerate(ensemble.weights):
        if weight > 0:
            outcomes = {
                _coincide([ensemble.bin_table[k][p][combo[p]] for p in parties])
                for combo in itertools.product((0, 1), repeat=ensemble.n_parties)
            }
            if len(outcomes) > 1:
                return True
    return False


@st.composite
def weighted_ensembles(draw, parties=st.just(3), int_weights=False):
    """1-5 strategies, some with zero weight; Fraction weights, or with
    ``int_weights`` also one strategy of int weight 1 among int 0s."""
    n = draw(parties)
    k = draw(st.integers(min_value=1, max_value=5))
    bins, signs = draw(_tables(k, n))
    if int_weights and draw(st.booleans()):
        hot = draw(st.integers(0, k - 1))
        return StrategyEnsemble(bins, signs, tuple(int(i == hot) for i in range(k)))
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    total = sum(weights)
    return StrategyEnsemble(bins, signs, tuple(Fraction(w, total) for w in weights))


def _same(got, want):
    if want is None or got is None:
        return got is want
    return isinstance(got, Fraction) and got == want


@given(ensemble=weighted_ensembles(parties=st.integers(2, 4)))
@settings(max_examples=150, deadline=None)
def test_evaluate_postselected_matches_per_strategy_loop(ensemble):
    coeffs = mermin_coefficients(ensemble.n_parties)
    corr = evaluate_postselected(ensemble)
    terms, selected = _oracle_evaluate(ensemble, list(coeffs))
    assert len(corr.terms) == len(coeffs)
    assert all(_same(g, w) for g, w in zip(corr.terms, terms))
    assert all(_same(g, w) for g, w in zip(corr.selected_fractions, selected))
    assert _same(corr.selection_rate, sum(selected) / len(coeffs))
    if None in terms:
        assert corr.mu is None
    else:
        mu = abs(2 * sum(c * t for c, t in zip(coeffs.values(), terms)))
        assert _same(corr.mu, mu)


@given(ensemble=weighted_ensembles(parties=st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_marginals_and_counterfactual_match_per_strategy_loop(ensemble):
    got = marginal_distribution(ensemble)
    want = _oracle_marginals(ensemble)
    assert got.keys() == want.keys()
    for cell, dist in want.items():
        assert got[cell].keys() == dist.keys()
        assert all(_same(got[cell][token], weight) for token, weight in dist.items())
    assert counterfactual_selection_dependence(ensemble) is _oracle_counterfactual(ensemble)


@given(ensemble=weighted_ensembles(parties=st.integers(1, 4), int_weights=True))
@settings(max_examples=60, deadline=None)
def test_ensemble_json_round_trip_property(ensemble):
    again = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ensemble))))
    assert _same_ensemble(again, ensemble)
    # every weight (Fraction or int) comes back as an exact Fraction
    assert all(isinstance(w, Fraction) for w in again.weights)


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_scaled_model_rejects_non_finite_target(target):
    with pytest.raises(ValueError, match=rf"^target must be a finite number in \[0, 4\], got {target}$"):
        scaled_model(target)


@pytest.mark.parametrize("bad", [math.nan, math.inf, "1/2", 0.5 + 0j, None, 0.5])
def test_ensemble_rejects_non_finite_and_non_real_weights(bad):
    bins, signs = _table([(ALL_S_PLUS,) * 3] * 2)
    message = rf"^weights must be exact: a Fraction or an integer \(not a bool\), got {re.escape(repr(bad))}$"
    with pytest.raises(ValueError, match=message):
        StrategyEnsemble(bins, signs, (Fraction(1, 2), bad))


@pytest.mark.parametrize("trials", [2.7, True, np.float64(3.0), "5", np.zeros((4, 3), np.int8)])
def test_event_stream_trial_count_must_be_an_integer(trials):
    with pytest.raises(ValueError, match="trial count must be an integer"):
        event_stream(saturating_model(), trials, seed=0)
