"""Deterministic local-hidden-variable strategies for the postselected
Mermin test.

A strategy gives each party, for each of its two settings, an arrival bin
(``S`` or ``L``) and a detector sign: the party's instruction. An ensemble holds its strategies as
two tables of plain ints, ``bin_table[k][p][s]`` (codes into :data:`BINS`) and
``sign_table[k][p][s]`` (+1 or -1), and mixes them with nonnegative exact
weights (Fractions or integers); every value derived from them is an exact
:class:`fractions.Fraction`, and the JSON form writes each weight as a
fraction string, so the headline numbers come out exact rather than merely
within tolerance.
:func:`evaluate_postselected` and :func:`event_stream` take any party count,
with the terms of :func:`~etbell.mermin.mermin_coefficients`; the searches
and the saturating model below are three-party:

* with the bare all-bins-equal coincidence rule, instructions whose bin may
  depend on the setting reach the algebraic maximum ``mu = 4``;
* once the bin is forced to be setting-independent, exhaustive enumeration
  caps every mixture at the classical bound ``mu = 2``.

The gap between those two numbers is the postselection loophole this
package is built to exhibit. Only :func:`event_stream` imports numpy or
takes the weights as floats, the probabilities of its draws.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple

from . import events  # executed only by event_stream
# imported here too, so that etbell.lhv.mermin_classical_bound keeps resolving
from .mermin import mermin_classical_bound, mermin_coefficients, mermin_mu
from .numerics import is_integer, json_fields, seeded_rng, trial_count

BINS = ("S", "L")
SIGNS = (1, -1)
#: Single-party outcomes, indexed by ``2 * bin code + (sign < 0)``.
TOKENS = tuple(f"{b}{'+' if s > 0 else '-'}" for b in BINS for s in SIGNS)


def _strategy_table(name: str, table, strategies: int, allowed) -> tuple:
    """``table`` as nested int tuples of shape (strategies, parties, 2) with
    entries in ``allowed``. An array is read through its ``tolist``, so a
    numpy array is taken without importing numpy."""
    table = table.tolist() if hasattr(table, "tolist") else table
    try:
        rows = tuple(tuple(map(tuple, row)) for row in table)
    except TypeError:  # an entry where a list belongs
        rows = ()
    cells = list(itertools.chain.from_iterable(rows))
    entries = list(itertools.chain.from_iterable(cells))
    odd = set(map(type, entries)) != {int}  # numpy integers, or no integers
    bad = [x for x in entries if not is_integer(x)] if odd else []  # a bool, float or str is no code
    if bad:
        raise ValueError(f"{name} must be an integer array, got {bad[0]!r}")
    parties, settings = set(map(len, rows)), set(map(len, cells))
    if len(rows) != strategies or len(parties) != 1 or settings != {2}:
        ragged = len(parties) != 1 or len(settings) != 1
        got = "ragged or empty lists" if ragged else (len(rows), *parties, *settings)
        raise ValueError(f"{name} must have shape ({strategies}, parties, 2), got {got}")
    if not set(entries) <= set(allowed):
        raise ValueError(f"{name} must take values in {set(allowed)}")
    return tuple(tuple((int(a), int(b)) for a, b in row) for row in rows) if odd else rows


class StrategyEnsemble:
    """Weighted mixture of joint deterministic strategies.

    ``StrategyEnsemble(bins, signs, weights)`` takes two tables of shape
    (strategies, parties, settings = 2), as nested lists or integer arrays:
    strategy ``k`` puts party ``p`` under setting ``s`` in bin
    ``BINS[bins[k][p][s]]`` with detector sign ``signs[k][p][s]``. They are
    held as nested int tuples, :attr:`bin_table` and :attr:`sign_table`.
    ``weights[k]``, the weight of strategy ``k``, is a Fraction or an
    integer (not a bool), so every derived quantity is exact. The ensemble
    is immutable.
    """

    def __init__(self, bins, signs, weights):
        weights = tuple(weights)
        if not weights:
            raise ValueError("ensemble cannot be empty")
        bin_table = _strategy_table("bins", bins, len(weights), (0, 1))
        sign_table = _strategy_table("signs", signs, len(weights), SIGNS)
        if len(bin_table[0]) != len(sign_table[0]):
            raise ValueError("bins and signs must share one shape")
        for w in weights:
            if not (isinstance(w, Fraction) or is_integer(w)):
                raise ValueError(f"weights must be exact: a Fraction or an integer (not a bool), got {w!r}")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be nonnegative")
        (total,) = _weighted_sum(weights, [(1,) * len(weights)])
        if total != 1:
            raise ValueError(f"weights must sum to 1, got {total}")
        vars(self).update(bin_table=bin_table, sign_table=sign_table, weights=weights)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable ensemble")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable ensemble")

    @property
    def n_parties(self) -> int:
        return len(self.bin_table[0])

    @property
    def size(self) -> int:
        return len(self.weights)


def _uniform(bins, signs) -> StrategyEnsemble:
    return StrategyEnsemble(bins, signs, (Fraction(1, len(bins)),) * len(bins))


class PostselectedCorrelations(NamedTuple):
    """Conditional Mermin terms given selection, with selection bookkeeping.

    A term whose setting combination selects nothing is ``None`` (undefined,
    never coerced to 0); ``mu`` is ``None`` whenever any term is undefined.
    ``selected_fractions`` holds the per-combination selected weight and
    ``selection_rate`` their average.
    """

    terms: tuple[Fraction | None, ...]
    mu: Fraction | None
    selection_rate: Fraction
    selected_fractions: tuple[Fraction, ...]

    @property
    def undefined_terms(self) -> tuple[int, ...]:
        return tuple(k for k, t in enumerate(self.terms) if t is None)


def combo_outcomes(bins, signs, combos) -> tuple[tuple[int, ...], ...]:
    """Outcome of each strategy of (strategies, parties, settings) bin and
    sign tables under each setting combination, as (strategies, combos)
    nested tuples: its sign product where all its bins agree (the rule of
    :func:`~etbell.events.all_equal`), else 0."""
    coincident = {(code,) * len(combos[0]) for code in range(len(BINS))}
    # columns[p][s]: party p's entry under setting s, strategy by strategy
    bin_columns = [tuple(zip(*party)) for party in zip(*bins)]
    sign_columns = [tuple(zip(*party)) for party in zip(*signs)]
    outcomes = []
    for combo in combos:
        picked_bins = zip(*(column[c] for column, c in zip(bin_columns, combo)))
        picked_signs = zip(*(column[c] for column, c in zip(sign_columns, combo)))
        outcomes.append([math.prod(s) if b in coincident else 0 for b, s in zip(picked_bins, picked_signs)])
    return tuple(zip(*outcomes))


def _weighted_sum(weights, columns) -> list[Fraction]:
    """Sum over strategies of weight times ``column[strategy]``, per column,
    as exact Fractions: integer numerators over the weights' common
    denominator (Python ints, so a numpy integer weight cannot overflow it)."""
    denom = math.lcm(*(w.denominator for w in weights))
    numerators = [int(w.numerator) * (denom // int(w.denominator)) for w in weights]
    return [Fraction(sum(map(operator.mul, numerators, column)), denom) for column in columns]


def evaluate_postselected(ensemble: StrategyEnsemble) -> PostselectedCorrelations:
    """Conditional expectations of the sign product given selection.

    For each Mermin setting combination of the ensemble's party count the
    coincidence rule sees the joint bins the strategies would produce under
    those settings; every value is an exact Fraction.
    """
    coeffs = mermin_coefficients(ensemble.n_parties)
    outcomes = combo_outcomes(ensemble.bin_table, ensemble.sign_table, tuple(coeffs))
    columns = list(zip(*outcomes))
    sums = _weighted_sum(ensemble.weights, [[o != 0 for o in column] for column in columns] + columns)
    selected, product = sums[: len(columns)], sums[len(columns) :]
    terms = tuple(p / w if w > 0 else None for p, w in zip(product, selected))
    return PostselectedCorrelations(
        terms=terms,
        mu=mermin_mu(coeffs, terms),
        selection_rate=sum(selected) / len(coeffs),
        selected_fractions=tuple(selected),
    )


def saturating_model() -> StrategyEnsemble:
    """Uniform instruction ensemble reaching ``mu = 4`` under bin coincidence.

    Per three-party Mermin combination with designated term sign ``c``,
    every party sits in ``S`` at that combination's setting, with signs
    ``s0``, ``s1``, ``c * s0 * s1``; at the other setting parties 0 and 1
    sit in ``L`` with free signs and party 2 takes each of S+, S-, L+, L-.
    Rows run lexicographically over (combination, s0, s1, other-setting
    signs of parties 0 and 1, party 2's other outcome), then the S<->L
    mirrors of all 256 follow (512 strategies). Each strategy is selected
    for exactly one combination, where its signs multiply to ``c``; a
    quarter of the weight survives selection and every single-party outcome
    S+, S-, L+, L- has probability 1/4.
    """
    bins, signs = [], []
    combos = [(combo, int(2 * c)) for combo, c in mermin_coefficients(3).items()]
    rows = itertools.product(combos, SIGNS, SIGNS, SIGNS, SIGNS, itertools.product((0, 1), SIGNS))
    for (combo, c), s0, s1, o0, o1, other in rows:
        # each party's (bins, signs): S with sign a at the combination's setting, b and g at the other
        parties = [
            ((0, b), (a, g)) if setting == 0 else ((b, 0), (g, a))
            for setting, a, (b, g) in zip(combo, (s0, s1, c * s0 * s1), ((1, o0), (1, o1), other))
        ]
        bin_row, sign_row = zip(*parties)
        bins.append(bin_row)
        signs.append(sign_row)
    mirrors = [tuple((1 - b0, 1 - b1) for b0, b1 in row) for row in bins]
    return _uniform(bins + mirrors, signs + signs)


def marginal_distribution(ensemble: StrategyEnsemble):
    """Outcome weights per (party, setting) over the tokens S+, S-, L+, L-.

    A token is listed when some strategy of the ensemble produces it, even
    with zero weight.
    """
    cells = [(p, s) for p in range(ensemble.n_parties) for s in (0, 1)]
    strategies = list(zip(ensemble.bin_table, ensemble.sign_table))
    produced = [[2 * b[p][s] + (g[p][s] < 0) for b, g in strategies] for p, s in cells]
    totals = _weighted_sum(
        ensemble.weights, [[x == t for x in column] for column in produced for t in range(len(TOKENS))]
    )
    return {
        cell: {token: totals[len(TOKENS) * i + t] for t, token in enumerate(TOKENS) if t in column}
        for i, (cell, column) in enumerate(zip(cells, produced))
    }


class SearchResult(NamedTuple):
    mu_max: Fraction
    witness: StrategyEnsemble
    correlations: PostselectedCorrelations
    strategies_examined: int


def _instructions() -> list:
    """The 16 per-party instructions as ((bin0, bin1), (sign0, sign1)) pairs,
    in lexicographic (bin0, sign0, bin1, sign1) order, sign + before -."""
    return [((b0, b1), (s0, s1)) for b0, s0, b1, s1 in itertools.product((0, 1), SIGNS, (0, 1), SIGNS)]


def _joint_strategies(instructions):
    """Every three-party strategy built from one party's instruction list,
    in ``itertools.product(instructions, repeat=3)`` order, as bin and sign
    tables, with its outcomes under the three-party Mermin combinations and
    their term signs ``2 c_s = +-1``."""
    bins = list(itertools.product([b for b, _ in instructions], repeat=3))
    signs = list(itertools.product([s for _, s in instructions], repeat=3))
    coeffs = mermin_coefficients(3)
    outcomes = combo_outcomes(bins, signs, tuple(coeffs))
    return bins, signs, outcomes, [int(2 * c) for c in coeffs.values()]


def max_mu_setting_dependent() -> SearchResult:
    """Exhaustive maximum of postselected mu over unrestricted instructions.

    Enumerates all 16^3 joint deterministic strategies. Because each
    conditional term is bounded by 1 in magnitude, any ensemble realizing
    the term pattern (+1, +1, +1, -1) is maximal; the witness mixes, for
    each setting combination, the first strategy selected exclusively there
    with the designated sign, which drives mu to exactly 4.
    """
    bins, signs, outcomes, term_signs = _joint_strategies(_instructions())
    exclusive = [row.count(0) == len(row) - 1 for row in outcomes]
    witnesses = []
    for k, target in enumerate(term_signs):
        match = [j for j, row in enumerate(outcomes) if exclusive[j] and row[k] == target]
        if not match:
            raise RuntimeError("no exclusive strategy for a Mermin combination")
        witnesses.append(match[0])
    witness = _uniform([bins[j] for j in witnesses], [signs[j] for j in witnesses])
    correlations = evaluate_postselected(witness)
    return SearchResult(
        mu_max=Fraction(correlations.mu),
        witness=witness,
        correlations=correlations,
        strategies_examined=len(outcomes),
    )


def max_mu_setting_independent() -> SearchResult:
    """Exhaustive maximum of postselected mu over fixed-bin instructions.

    With setting-independent bins (``bins[k][p][0] == bins[k][p][1]``) a
    strategy is selected for all four combinations or none, so every
    mixture's mu is a weighted average of single-strategy values and the
    maximum over the 8^3 joint strategies is the maximum over all
    ensembles. The witness is the first maximizer.
    """
    fixed = [(b, s) for b, s in _instructions() if b[0] == b[1]]
    bins, signs, outcomes, term_signs = _joint_strategies(fixed)
    mu = [abs(sum(map(operator.mul, row, term_signs))) if any(row) else -1 for row in outcomes]
    best = mu.index(max(mu))
    if mu[best] < 0:
        raise RuntimeError("no fixed-bin strategy is ever selected")
    witness = _uniform(bins[best : best + 1], signs[best : best + 1])
    return SearchResult(
        mu_max=Fraction(mu[best]),
        witness=witness,
        correlations=evaluate_postselected(witness),
        strategies_examined=len(outcomes),
    )


def scaled_model(target) -> StrategyEnsemble:
    """Ensemble whose postselected mu equals ``target`` (0 <= target <= 4).

    Mixes the saturating model with its sign-symmetrized copy (the 50/50
    blend of the model and its party-0 sign flip, whose conditional terms
    all vanish). Both components select exactly the same strategies' bins,
    so the conditional terms scale linearly: weight p = target/4 on the
    saturating part gives mu = 4p = target, exactly for rational targets.
    """
    try:
        t = Fraction(target)
    except (ValueError, OverflowError):  # NaN or infinite
        t = None
    if t is None or not 0 <= t <= 4:
        raise ValueError(f"target must be a finite number in [0, 4], got {target}")
    base = saturating_model()
    flipped = tuple(((-s0, -s1), *rest) for (s0, s1), *rest in base.sign_table)
    p = t / 4
    w_keep = (1 + p) / 2
    w_flip = (1 - p) / 2
    return StrategyEnsemble(
        base.bin_table * 2,
        base.sign_table + flipped,
        tuple(w * w_keep for w in base.weights) + tuple(w * w_flip for w in base.weights),
    )


def event_stream(ensemble: StrategyEnsemble, trials: int, seed: int = 0) -> events.EventTable:
    """Seeded Monte-Carlo stream of ``trials`` measurement events from an
    ensemble, settings drawn uniformly. Identical seeds produce identical
    streams; empirical postselected correlations converge to
    :func:`evaluate_postselected` at the usual 1/sqrt(trials) rate.
    """
    import numpy as np

    trials = trial_count(trials)
    rng = seeded_rng(seed)
    n = ensemble.n_parties
    settings = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    weights = np.array([float(w) for w in ensemble.weights])
    weights = weights / weights.sum()
    picks = rng.choice(ensemble.size, size=trials, p=weights)
    party_idx = np.arange(n)[None, :]
    # each table as int8 (strategies, parties, settings), gathered at the picks and settings
    bins, signs = (
        np.fromiter(itertools.chain.from_iterable(itertools.chain.from_iterable(table)), np.int8)
        .reshape(ensemble.size, n, 2)[picks[:, None], party_idx, settings]
        for table in (ensemble.bin_table, ensemble.sign_table)
    )
    return events.EventTable(settings, bins, signs, events.all_equal(bins), BINS, _adopt=True)


def ensemble_to_json(ensemble: StrategyEnsemble) -> dict:
    """JSON form: each weight as an exact fraction string."""
    strategies = zip(ensemble.bin_table, ensemble.sign_table, ensemble.weights)
    entries = [
        {
            "parties": [{"bins": [BINS[c] for c in b], "signs": list(s)} for b, s in zip(bins, signs)],
            "weight": str(weight),
        }
        for bins, signs, weight in strategies
    ]
    return {"entries": entries}


def ensemble_from_json(data: dict) -> StrategyEnsemble:
    """Strict inverse of :func:`ensemble_to_json`: each weight is a fraction
    string, read as an exact :class:`~fractions.Fraction`."""
    json_fields(data, "ensemble", ("entries",))
    if not isinstance(data["entries"], list):
        raise ValueError(f"entries must be a list, got {data['entries']!r}")
    bins, signs, weights = [], [], []
    for k, item in enumerate(data["entries"]):
        json_fields(item, f"entries[{k}]", ("parties", "weight"))
        parties = item["parties"]
        if not isinstance(parties, list) or not parties:
            raise ValueError(f"entries[{k}].parties must be a non-empty list, got {parties!r}")
        if bins and len(parties) != len(bins[0]):
            raise ValueError(f"entries[{k}].parties: all strategies must cover the same parties")
        bins.append([])
        signs.append([])
        for p, party in enumerate(parties):
            where = f"entries[{k}].parties[{p}]"
            json_fields(party, where, ("bins", "signs"))
            for key in ("bins", "signs"):
                if not isinstance(party[key], list):
                    raise ValueError(f"{where}.{key} must be a list, got {party[key]!r}")
            party_bins, party_signs = tuple(party["bins"]), tuple(party["signs"])
            if len(party_bins) != 2 or not all(b in BINS for b in party_bins):
                raise ValueError(f"{where}.bins must assign S or L to both settings, got {party_bins!r}")
            if len(party_signs) != 2 or not all(is_integer(s) and s in SIGNS for s in party_signs):
                raise ValueError(
                    f"{where}.signs must assign the integer +1 or -1 to both settings, got {party_signs!r}"
                )
            bins[-1].append([BINS.index(b) for b in party_bins])
            signs[-1].append(party_signs)
        raw = item["weight"]
        if not isinstance(raw, str):
            raise ValueError(f"entries[{k}].weight must be a fraction string, got {raw!r}")
        try:
            weights.append(Fraction(raw))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"entries[{k}].weight {raw!r} is not a fraction") from None
    return StrategyEnsemble(bins, signs, tuple(weights))
