"""Deterministic local-hidden-variable strategies for the postselected
Mermin test.

A strategy gives each party, for each of its two settings, an arrival bin
(``S`` or ``L``) and a detector sign: the party's instruction. An ensemble holds its strategies as
two small-integer arrays, ``bins[k, p, s]`` (codes into :data:`BINS`) and
``signs[k, p, s]`` (+1 or -1), and mixes them with nonnegative weights;
weights and conditional correlations stay exact :class:`fractions.Fraction`
values whenever the input weights are rational, so the headline numbers
come out exact rather than merely within tolerance.
:func:`evaluate_postselected` and :func:`event_stream` take any party count,
with the terms of :func:`~etbell.mermin.mermin_coefficients`; the searches
and the saturating model below are three-party:

* with the bare all-bins-equal coincidence rule, instructions whose bin may
  depend on the setting reach the algebraic maximum ``mu = 4``;
* once the bin is forced to be setting-independent, exhaustive enumeration
  caps every mixture at the classical bound ``mu = 2``.

The gap between those two numbers is the postselection loophole this
package is built to exhibit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .events import EventTable, all_equal
# imported here too, so that etbell.lhv.mermin_classical_bound keeps resolving
from .mermin import mermin_classical_bound, mermin_coefficients, mermin_mu
from .numerics import is_integer, json_fields, json_real, seeded_rng, trial_count

BINS = ("S", "L")
SIGNS = (1, -1)
#: Single-party outcomes, indexed by ``2 * bin code + (sign < 0)``.
TOKENS = tuple(f"{b}{'+' if s > 0 else '-'}" for b in BINS for s in SIGNS)


def _exact(weight) -> bool:
    """An exact weight: a Fraction or an integer (not a bool)."""
    return isinstance(weight, Fraction) or is_integer(weight)


@dataclass(frozen=True, eq=False)
class StrategyEnsemble:
    """Weighted mixture of joint deterministic strategies.

    ``bins`` and ``signs`` have shape (strategies, parties, settings = 2):
    strategy ``k`` puts party ``p`` under setting ``s`` in bin
    ``BINS[bins[k, p, s]]`` with detector sign ``signs[k, p, s]``. Both are
    stored as read-only int8 arrays. ``weights[k]`` is the weight of
    strategy ``k``; rational weights make every derived quantity exact.
    """

    bins: np.ndarray
    signs: np.ndarray
    weights: tuple[Fraction | float, ...]

    def __post_init__(self):
        weights = tuple(self.weights)
        if not weights:
            raise ValueError("ensemble cannot be empty")
        for name, allowed in (("bins", (0, 1)), ("signs", SIGNS)):
            table = np.asarray(getattr(self, name))
            if table.dtype.kind not in "iu":  # not bool, float or str
                raise ValueError(f"{name} must be an integer array, got dtype {table.dtype}")
            if table.ndim != 3 or table.shape[0] != len(weights) or 0 in table.shape or table.shape[2] != 2:
                raise ValueError(f"{name} must have shape ({len(weights)}, parties, 2), got {table.shape}")
            if not np.isin(table, allowed).all():
                raise ValueError(f"{name} must take values in {set(allowed)}")
            table = table.astype(np.int8)
            table.setflags(write=False)
            object.__setattr__(self, name, table)
        if self.bins.shape != self.signs.shape:
            raise ValueError("bins and signs must share one shape")
        for w in weights:
            if isinstance(w, bool):
                raise ValueError("weights must be numbers, not bools")
            if not (_exact(w) or isinstance(w, numbers.Real) and math.isfinite(w)):
                raise ValueError(f"weights must be finite real numbers, got {w!r}")
        if any(weight < 0 for weight in weights):
            raise ValueError("weights must be nonnegative")
        total = sum(weights)
        if all(_exact(w) for w in weights):
            if total != 1:
                raise ValueError(f"weights must sum to 1, got {total}")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "weights", weights)

    @property
    def n_parties(self) -> int:
        return self.bins.shape[1]

    @property
    def size(self) -> int:
        return len(self.weights)


def _uniform(bins, signs) -> StrategyEnsemble:
    return StrategyEnsemble(bins, signs, (Fraction(1, len(bins)),) * len(bins))


@dataclass(frozen=True)
class PostselectedCorrelations:
    """Conditional Mermin terms given selection, with selection bookkeeping.

    A term whose setting combination selects nothing is ``None`` (undefined,
    never coerced to 0); ``mu`` is ``None`` whenever any term is undefined.
    ``selected_fractions`` holds the per-combination selected weight and
    ``selection_rate`` their average.
    """

    terms: tuple[Fraction | float | None, ...]
    mu: Fraction | float | None
    selection_rate: Fraction | float
    selected_fractions: tuple[Fraction | float, ...]

    @property
    def undefined_terms(self) -> tuple[int, ...]:
        return tuple(k for k, t in enumerate(self.terms) if t is None)


def combo_outcomes(bins, signs, combos) -> np.ndarray:
    """Outcome of each strategy of (strategies, parties, settings) bin and
    sign tables under each setting combination, shape (strategies, combos):
    its sign product where :func:`all_equal` selects its bins, else 0."""
    combos = np.asarray(combos)
    parties = np.arange(combos.shape[1])
    selected = all_equal(bins[:, parties, combos])
    return np.where(selected, signs[:, parties, combos].prod(axis=-1), 0)


def _weighted_sum(ensemble: StrategyEnsemble, values: np.ndarray) -> list:
    """Sum over strategies of weight times ``values[strategy, ...]``, as
    nested lists. When every weight is exact the sums are taken on integer
    numerators over the weights' common denominator and come out as
    Fractions; otherwise they are float64 sums."""
    weights = ensemble.weights
    if all(_exact(w) for w in weights):
        denom = math.lcm(*(Fraction(w).denominator for w in weights))
        numerators = np.array([int(w * denom) for w in weights], dtype=object)
        return (np.tensordot(numerators, values, axes=1) * Fraction(1, denom)).tolist()
    return np.tensordot(np.array(weights, dtype=np.float64), values, axes=1).tolist()


def evaluate_postselected(ensemble: StrategyEnsemble) -> PostselectedCorrelations:
    """Conditional expectations of the sign product given selection.

    For each Mermin setting combination of the ensemble's party count the
    coincidence rule sees the joint bins the strategies would produce under
    those settings; selected weight and sign-product weight are exact for
    rational ensemble weights.
    """
    coeffs = mermin_coefficients(ensemble.n_parties)
    outcomes = combo_outcomes(ensemble.bins, ensemble.signs, tuple(coeffs))
    selected = _weighted_sum(ensemble, outcomes != 0)
    product = _weighted_sum(ensemble, outcomes)
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
    coeffs = mermin_coefficients(3)
    combos = np.array(list(coeffs))
    term_signs = np.array([int(2 * c) for c in coeffs.values()])
    k, c0, c1, o0, o1, other = np.indices((len(combos), 2, 2, 2, 2, 4)).reshape(6, -1)
    s0, s1 = 1 - 2 * c0, 1 - 2 * c1
    at_combo = combos[k][..., None] == np.arange(2)  # (rows, parties, settings)
    long_ = np.ones_like(other)
    bins = np.where(at_combo, 0, np.stack([long_, long_, other // 2], axis=-1)[..., None])
    signs = np.where(
        at_combo,
        np.stack([s0, s1, term_signs[k] * s0 * s1], axis=-1)[..., None],
        1 - 2 * np.stack([o0, o1, other % 2], axis=-1)[..., None],
    )
    return _uniform(np.concatenate([bins, 1 - bins]), np.concatenate([signs, signs]))


def marginal_distribution(ensemble: StrategyEnsemble):
    """Outcome weights per (party, setting) over the tokens S+, S-, L+, L-.

    A token is listed when some strategy of the ensemble produces it, even
    with zero weight.
    """
    produced = (2 * ensemble.bins + (ensemble.signs < 0))[..., None] == np.arange(len(TOKENS))
    totals = _weighted_sum(ensemble, produced)
    present = produced.any(axis=0)
    return {
        (p, s): {
            token: totals[p][s][t] for t, token in enumerate(TOKENS) if present[p, s, t]
        }
        for p in range(ensemble.n_parties)
        for s in (0, 1)
    }


@dataclass(frozen=True)
class SearchResult:
    mu_max: Fraction
    witness: StrategyEnsemble
    correlations: PostselectedCorrelations
    strategies_examined: int


def _instructions() -> tuple[np.ndarray, np.ndarray]:
    """The 16 per-party instructions as (16, settings) bin and sign tables,
    in lexicographic (bin0, sign0, bin1, sign1) order, sign code
    ``c -> 1 - 2c``."""
    b0, c0, b1, c1 = np.indices((2, 2, 2, 2)).reshape(4, -1)
    return np.stack([b0, b1], axis=-1), 1 - 2 * np.stack([c0, c1], axis=-1)


def _joint_strategies(bins, signs):
    """Every three-party strategy built from one party's instruction table,
    in ``itertools.product(table, repeat=3)`` order, as (strategies, 3, 2)
    bin and sign tables, with its outcomes under the three-party Mermin
    combinations and their term signs ``2 c_s = +-1``."""
    idx = np.indices((len(bins),) * 3).reshape(3, -1).T
    bins, signs = bins[idx], signs[idx]
    coeffs = mermin_coefficients(3)
    outcomes = combo_outcomes(bins, signs, tuple(coeffs))
    return bins, signs, outcomes, np.array([int(2 * c) for c in coeffs.values()])


def max_mu_setting_dependent() -> SearchResult:
    """Exhaustive maximum of postselected mu over unrestricted instructions.

    Enumerates all 16^3 joint deterministic strategies. Because each
    conditional term is bounded by 1 in magnitude, any ensemble realizing
    the term pattern (+1, +1, +1, -1) is maximal; the witness mixes, for
    each setting combination, the first strategy selected exclusively there
    with the designated sign, which drives mu to exactly 4.
    """
    bins, signs, outcomes, term_signs = _joint_strategies(*_instructions())
    exclusive = np.count_nonzero(outcomes, axis=1) == 1
    witnesses = []
    for k, target in enumerate(term_signs):
        match = exclusive & (outcomes[:, k] == target)
        if not match.any():
            raise RuntimeError("no exclusive strategy for a Mermin combination")
        witnesses.append(match.argmax())
    witness = _uniform(bins[witnesses], signs[witnesses])
    correlations = evaluate_postselected(witness)
    return SearchResult(
        mu_max=Fraction(correlations.mu),
        witness=witness,
        correlations=correlations,
        strategies_examined=len(outcomes),
    )


def max_mu_setting_independent() -> SearchResult:
    """Exhaustive maximum of postselected mu over fixed-bin instructions.

    With setting-independent bins (``bins[..., 0] == bins[..., 1]``) a
    strategy is selected for all four combinations or none, so every
    mixture's mu is a weighted average of single-strategy values and the
    maximum over the 8^3 joint strategies is the maximum over all
    ensembles. The witness is the first maximizer.
    """
    bins, signs = _instructions()
    fixed = bins[:, 0] == bins[:, 1]
    bins, signs, outcomes, term_signs = _joint_strategies(bins[fixed], signs[fixed])
    selected = outcomes.any(axis=1)
    if not selected.any():
        raise RuntimeError("no fixed-bin strategy is ever selected")
    mu = np.where(selected, np.abs(outcomes @ term_signs), -1)
    best = int(mu.argmax())
    witness = _uniform(bins[best : best + 1], signs[best : best + 1])
    return SearchResult(
        mu_max=Fraction(int(mu[best])),
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
    flipped = base.signs.copy()
    flipped[:, 0] *= -1
    p = t / 4
    w_keep = (1 + p) / 2
    w_flip = (1 - p) / 2
    return StrategyEnsemble(
        np.concatenate([base.bins, base.bins]),
        np.concatenate([base.signs, flipped]),
        tuple(w * w_keep for w in base.weights) + tuple(w * w_flip for w in base.weights),
    )


def event_stream(ensemble: StrategyEnsemble, schedule, seed: int = 0) -> EventTable:
    """Seeded Monte-Carlo stream of measurement events from an ensemble.

    ``schedule`` is either a trial count (settings drawn uniformly) or an
    explicit (trials, parties) array of settings. Identical seeds produce
    identical streams; empirical postselected correlations converge to
    :func:`evaluate_postselected` at the usual 1/sqrt(trials) rate.
    """
    rng = seeded_rng(seed)
    n = ensemble.n_parties
    if np.isscalar(schedule):
        trials = trial_count(schedule)
        settings = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    else:
        # Check the values before narrowing, which would wrap 257 to 1 and cut 0.5 to 0.
        settings = np.asarray(schedule)
        if settings.ndim != 2 or settings.shape[1] != n:
            raise ValueError("schedule must be a (trials, parties) array")
        if not ((settings == 0) | (settings == 1)).all():
            raise ValueError("settings must be 0 or 1")
        settings = settings.astype(np.int8)
        trials = settings.shape[0]
    weights = np.array([float(w) for w in ensemble.weights])
    weights = weights / weights.sum()
    picks = rng.choice(ensemble.size, size=trials, p=weights)
    party_idx = np.arange(n)[None, :]
    bins = ensemble.bins[picks[:, None], party_idx, settings]
    signs = ensemble.signs[picks[:, None], party_idx, settings]
    return EventTable(settings, bins, signs, all_equal(bins), BINS, _adopt=True)


def ensemble_to_json(ensemble: StrategyEnsemble) -> dict:
    """JSON form: an exact weight (Fraction or int) as a fraction string, a
    float as a number."""
    strategies = zip(np.array(BINS)[ensemble.bins].tolist(), ensemble.signs.tolist(), ensemble.weights)
    entries = [
        {
            "parties": [{"bins": b, "signs": s} for b, s in zip(bins, signs)],
            "weight": str(weight) if _exact(weight) else weight,
        }
        for bins, signs, weight in strategies
    ]
    return {"entries": entries}


def ensemble_from_json(data: dict) -> StrategyEnsemble:
    """Strict inverse of :func:`ensemble_to_json`: a string weight is an exact
    :class:`~fractions.Fraction`, a number a float."""
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
        if isinstance(raw, str):
            try:
                weights.append(Fraction(raw))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"entries[{k}].weight {raw!r} is not a fraction") from None
        else:
            weights.append(json_real(raw, f"entries[{k}].weight"))
    return StrategyEnsemble(np.array(bins, dtype=np.int8), np.array(signs, dtype=np.int8), tuple(weights))
