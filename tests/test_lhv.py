import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etbell.events import mermin_coefficients, mermin_estimate
from etbell.lhv import (
    FixedBinInstruction,
    LocalInstruction,
    StrategyEnsemble,
    all_instructions,
    combo_outcomes,
    ensemble_from_json,
    ensemble_to_json,
    evaluate_postselected,
    event_stream,
    fixed_bin_instructions,
    marginal_distribution,
    max_mu_setting_dependent,
    max_mu_setting_independent,
    mermin_classical_bound,
    saturating_model,
    scaled_model,
    strategy_table,
)
from etbell.source import counterfactual_selection_dependence

ALL_S_PLUS = FixedBinInstruction.of("S", (1, 1))
MERMIN3 = tuple(mermin_coefficients(3))


def _profiles(strategies):
    """Per-combination outcome of each joint strategy under the three-party
    Mermin combinations: its sign product where selected, 0 where rejected."""
    return combo_outcomes(*strategy_table(strategies), MERMIN3)


def _mu(profiles):
    """|t1 + t2 + t3 - t4| of each profile row."""
    return np.abs(profiles[:, 0] + profiles[:, 1] + profiles[:, 2] - profiles[:, 3])


def test_instruction_enumerations():
    instructions = all_instructions()
    assert len(instructions) == 16
    assert len(set(instructions)) == 16
    fixed = fixed_bin_instructions()
    assert len(fixed) == 8
    assert all(instr.bins[0] == instr.bins[1] for instr in fixed)
    assert set(fixed) <= set(instructions)


def test_instruction_accessors_and_tokens():
    instr = LocalInstruction(("S", "L"), (1, -1))
    assert instr.bin(0) == "S" and instr.bin(1) == "L"
    assert instr.sign(0) == 1 and instr.sign(1) == -1
    assert instr.token(0) == "S+" and instr.token(1) == "L-"
    assert instr.swap_bins().bins == ("L", "S")
    assert instr.flip_signs().signs == (-1, 1)


def test_fixed_bin_invariant():
    with pytest.raises(ValueError):
        FixedBinInstruction(("S", "L"), (1, 1))
    assert FixedBinInstruction.of("L", (1, -1)).bins == ("L", "L")


def test_instruction_validation():
    with pytest.raises(ValueError):
        LocalInstruction(("S", "X"), (1, 1))
    with pytest.raises(ValueError):
        LocalInstruction(("S", "L"), (1, 2))


def test_ensemble_validation():
    with pytest.raises(ValueError):
        StrategyEnsemble(())
    strategy = (ALL_S_PLUS,) * 3
    with pytest.raises(ValueError):
        StrategyEnsemble(((strategy, Fraction(1, 2)),))
    with pytest.raises(ValueError):
        StrategyEnsemble(
            ((strategy, Fraction(3, 2)), (strategy, Fraction(-1, 2)))
        )


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
    corr = evaluate_postselected(StrategyEnsemble.single((ALL_S_PLUS,) * 3))
    assert corr.terms == (1, 1, 1, 1)
    assert corr.mu == 2
    assert corr.selection_rate == 1


def test_evaluate_uniform_signs_fixed_bins_vanishes():
    strategies = [
        (
            FixedBinInstruction.of("S", (sa, sa)),
            FixedBinInstruction.of("S", (sb, sb)),
            FixedBinInstruction.of("S", (sc, sc)),
        )
        for sa in (1, -1)
        for sb in (1, -1)
        for sc in (1, -1)
    ]
    corr = evaluate_postselected(StrategyEnsemble.uniform(strategies))
    assert corr.terms == (0, 0, 0, 0)
    assert corr.mu == 0
    assert corr.selection_rate == 1


def test_undefined_terms_are_flagged_not_zeroed():
    # C sits in S for setting 0 and L for setting 1: combos with c-setting 1
    # never coincide with the all-S parties, so terms 1 and 4 are undefined.
    c = LocalInstruction(("S", "L"), (1, 1))
    corr = evaluate_postselected(
        StrategyEnsemble.single((ALL_S_PLUS, ALL_S_PLUS, c))
    )
    assert corr.undefined_terms == (0, 3)
    assert corr.terms[0] is None
    assert corr.terms[1] == 1
    assert corr.mu is None


def test_strategy_profile_matches_evaluation():
    c = LocalInstruction(("S", "L"), (1, 1))
    profiles = _profiles([(ALL_S_PLUS, ALL_S_PLUS, ALL_S_PLUS), (ALL_S_PLUS, ALL_S_PLUS, c)])
    assert profiles.tolist() == [[1, 1, 1, 1], [0, 1, 1, 0]]


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
    profiles = _profiles(itertools.product(all_instructions(), repeat=3))
    assert profiles.shape == (16**3, 4)
    assert set(np.unique(profiles)) <= {-1, 0, 1}
    all_selected = (profiles != 0).all(axis=1)
    assert all_selected.any()
    assert set(_mu(profiles[all_selected]).tolist()) == {2}


def test_fixed_bin_enumeration_never_exceeds_two():
    profiles = _profiles(itertools.product(fixed_bin_instructions(), repeat=3))
    assert profiles.shape == (8**3, 4)
    # selection is the same for every combination
    selected = profiles != 0
    assert (selected == selected[:, :1]).all()
    assert (_mu(profiles[selected[:, 0]]) <= 2).all()


def test_random_fixed_bin_mixtures_bounded_by_two():
    profiles = _profiles(itertools.product(fixed_bin_instructions(), repeat=3))
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
    extra = sum(w for _, w in pure.entries[base.size:])
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
    table = event_stream(StrategyEnsemble.single((ALL_S_PLUS,) * 3), 500, seed=0)
    assert table.selected.all()
    assert (table.signs == 1).all()


def test_event_stream_explicit_schedule():
    schedule = np.tile([0, 0, 1], (100, 1))
    table = event_stream(saturating_model(), schedule, seed=4)
    assert table.n_trials == 100
    assert (table.settings == schedule).all()
    with pytest.raises(ValueError):
        event_stream(saturating_model(), np.zeros((5, 2), dtype=int), seed=0)
    with pytest.raises(ValueError):
        event_stream(saturating_model(), 0, seed=0)


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


def test_ensemble_json_round_trip():
    model = scaled_model(1)
    again = ensemble_from_json(ensemble_to_json(model))
    assert again.entries == model.entries
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
    with pytest.raises(ValueError, match="bins" if isinstance(bins, str) else "signs"):
        LocalInstruction(bins, signs)


def test_instruction_accepts_numpy_integer_signs():
    instr = LocalInstruction(("S", "L"), tuple(np.array([1, -1], dtype=np.int8)))
    assert instr == LocalInstruction(("S", "L"), (1, -1))
    assert all(type(s) is int for s in instr.signs)


def test_ensemble_rejects_bool_weights():
    with pytest.raises(ValueError, match="not bools"):
        StrategyEnsemble((((ALL_S_PLUS,) * 3, True),))


_DROP = object()


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
    data = edit(ensemble_to_json(StrategyEnsemble.single((ALL_S_PLUS,) * 3)))
    with pytest.raises(ValueError) as exc:
        ensemble_from_json(data)
    assert field in str(exc.value)


@pytest.mark.parametrize("n,expected", [(1, 2), (2, 2), (3, 2), (4, 2), (5, 2), (6, 2)])
def test_mermin_classical_bound_enumeration(n, expected):
    assert mermin_classical_bound(n) == expected


@st.composite
def small_ensembles(draw):
    instructions = all_instructions()
    k = draw(st.integers(min_value=1, max_value=5))
    entries = []
    weights = []
    for _ in range(k):
        idx = draw(st.tuples(*(st.integers(0, 15) for _ in range(3))))
        strategy = tuple(instructions[i] for i in idx)
        weights.append(draw(st.integers(min_value=1, max_value=9)))
        entries.append(strategy)
    total = sum(weights)
    return StrategyEnsemble(
        tuple((s, Fraction(w, total)) for s, w in zip(entries, weights))
    )


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
# array form of evaluate_postselected, marginal_distribution and
# counterfactual_selection_dependence is checked against.
def _coincide(bins):
    return all(b == bins[0] for b in bins[1:])


def _oracle_evaluate(ensemble, combos):
    selected = [0] * len(combos)
    product = [0] * len(combos)
    for strategy, weight in ensemble.entries:
        for k, combo in enumerate(combos):
            if _coincide([instr.bin(s) for instr, s in zip(strategy, combo)]):
                sign = math.prod(instr.sign(s) for instr, s in zip(strategy, combo))
                selected[k] += weight
                product[k] += weight * sign
    terms = [p / w if w > 0 else None for p, w in zip(product, selected)]
    return terms, selected


def _oracle_marginals(ensemble):
    out = {(p, s): {} for p in range(ensemble.n_parties) for s in (0, 1)}
    for strategy, weight in ensemble.entries:
        for p, instr in enumerate(strategy):
            for s in (0, 1):
                bucket = out[(p, s)]
                bucket[instr.token(s)] = bucket.get(instr.token(s), 0) + weight
    return out


def _oracle_counterfactual(ensemble):
    for strategy, weight in ensemble.entries:
        if weight > 0:
            outcomes = {
                _coincide([instr.bin(s) for instr, s in zip(strategy, combo)])
                for combo in itertools.product((0, 1), repeat=ensemble.n_parties)
            }
            if len(outcomes) > 1:
                return True
    return False


@st.composite
def weighted_ensembles(draw, parties=st.just(3), int_weights=False):
    """1-5 strategies, some with zero weight; Fraction or float weights, or
    with ``int_weights`` also one strategy of int weight 1 among int 0s."""
    instructions = all_instructions()
    n = draw(parties)
    k = draw(st.integers(min_value=1, max_value=5))
    strategies = [
        tuple(instructions[i] for i in draw(st.lists(st.integers(0, 15), min_size=n, max_size=n)))
        for _ in range(k)
    ]
    if int_weights and draw(st.booleans()):
        hot = draw(st.integers(0, k - 1))
        return StrategyEnsemble(tuple((s, int(i == hot)) for i, s in enumerate(strategies)))
    weights = draw(st.lists(st.integers(0, 9), min_size=k, max_size=k).filter(any))
    total = sum(weights)
    if draw(st.booleans()):
        return StrategyEnsemble(tuple((s, Fraction(w, total)) for s, w in zip(strategies, weights)))
    return StrategyEnsemble(tuple((s, w / total) for s, w in zip(strategies, weights)))


def _same(got, want, exact):
    if want is None or got is None:
        return got is want
    if exact:
        return isinstance(got, Fraction) and got == want
    return isinstance(got, float) and got == pytest.approx(want, abs=1e-12)


@given(ensemble=weighted_ensembles(parties=st.integers(2, 4)))
@settings(max_examples=150, deadline=None)
def test_evaluate_postselected_matches_per_strategy_loop(ensemble):
    exact = all(isinstance(w, Fraction) for _, w in ensemble.entries)
    coeffs = mermin_coefficients(ensemble.n_parties)
    corr = evaluate_postselected(ensemble)
    terms, selected = _oracle_evaluate(ensemble, list(coeffs))
    assert len(corr.terms) == len(coeffs)
    assert all(_same(g, w, exact) for g, w in zip(corr.terms, terms))
    assert all(_same(g, w, exact) for g, w in zip(corr.selected_fractions, selected))
    assert _same(corr.selection_rate, sum(selected) / len(coeffs), exact)
    if None in terms:
        assert corr.mu is None
    else:
        mu = abs(2 * sum(c * t for c, t in zip(coeffs.values(), terms)))
        assert _same(corr.mu, mu, exact)


@given(ensemble=weighted_ensembles(parties=st.integers(1, 4)))
@settings(max_examples=150, deadline=None)
def test_marginals_and_counterfactual_match_per_strategy_loop(ensemble):
    exact = all(isinstance(w, Fraction) for _, w in ensemble.entries)
    got = marginal_distribution(ensemble)
    want = _oracle_marginals(ensemble)
    assert got.keys() == want.keys()
    for cell, dist in want.items():
        assert got[cell].keys() == dist.keys()
        assert all(_same(got[cell][token], weight, exact) for token, weight in dist.items())
    assert counterfactual_selection_dependence(ensemble) is _oracle_counterfactual(ensemble)


@given(ensemble=weighted_ensembles(int_weights=True))
@settings(max_examples=60, deadline=None)
def test_ensemble_json_round_trip_property(ensemble):
    again = ensemble_from_json(json.loads(json.dumps(ensemble_to_json(ensemble))))
    assert again.entries == ensemble.entries
    # an exact weight (Fraction or int) comes back as an exact Fraction
    assert [isinstance(w, float) for _, w in again.entries] == [
        isinstance(w, float) for _, w in ensemble.entries
    ]


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf])
def test_scaled_model_rejects_non_finite_target(target):
    with pytest.raises(ValueError, match=rf"^target must be a finite number in \[0, 4\], got {target}$"):
        scaled_model(target)
