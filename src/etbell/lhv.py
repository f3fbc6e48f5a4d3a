"""Deterministic local-hidden-variable strategies for the postselected
Mermin test.

A strategy gives each party, for each of its two settings, an arrival bin
(``S`` or ``L``) and a detector sign. Ensembles mix strategies with
nonnegative weights; weights and conditional correlations stay exact
:class:`fractions.Fraction` values whenever the input weights are rational,
so the headline numbers come out exact rather than merely within tolerance.
:func:`evaluate_postselected` and :func:`event_stream` take any party count,
with the terms of :func:`~etbell.events.mermin_coefficients`; the searches
and the saturating model below are three-party:

* with the bare all-bins-equal coincidence rule, instructions whose bin may
  depend on the setting reach the algebraic maximum ``mu = 4``;
* once the bin is forced to be setting-independent
  (:class:`FixedBinInstruction`), exhaustive enumeration caps every mixture
  at the classical bound ``mu = 2``.

The gap between those two numbers is the postselection loophole this
package is built to exhibit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .events import EventTable, all_equal, mermin_coefficients, mermin_mu
from .numerics import is_integer, json_fields, json_real, seeded_rng

BINS = ("S", "L")
SIGNS = (1, -1)
#: Single-party outcomes, indexed by ``2 * bin code + (sign < 0)``.
TOKENS = tuple(f"{b}{'+' if s > 0 else '-'}" for b in BINS for s in SIGNS)


@dataclass(frozen=True, eq=False)
class LocalInstruction:
    """Per-setting bin and sign for one party: ``bins[s]``, ``signs[s]``.

    Equality is by field values, so a :class:`FixedBinInstruction` equals
    the unrestricted instruction with the same table.
    """

    bins: tuple[str, str]
    signs: tuple[int, int]

    def __eq__(self, other):
        if not isinstance(other, LocalInstruction):
            return NotImplemented
        return self.bins == other.bins and self.signs == other.signs

    def __hash__(self):
        return hash((self.bins, self.signs))

    def __post_init__(self):
        bins = () if isinstance(self.bins, str) else tuple(self.bins)
        signs = tuple(self.signs)
        if len(bins) != 2 or any(b not in BINS for b in bins):
            raise ValueError(f"bins must assign S or L to both settings, got {self.bins!r}")
        if len(signs) != 2 or not all(is_integer(s) and s in SIGNS for s in signs):
            raise ValueError(f"signs must assign the integer +1 or -1 to both settings, got {self.signs!r}")
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "signs", tuple(int(s) for s in signs))

    def bin(self, setting: int) -> str:
        return self.bins[setting]

    def sign(self, setting: int) -> int:
        return self.signs[setting]

    def swap_bins(self):
        swapped = tuple("L" if b == "S" else "S" for b in self.bins)
        return type(self)(swapped, self.signs)

    def flip_signs(self):
        return type(self)(self.bins, tuple(-s for s in self.signs))

    def token(self, setting: int) -> str:
        return f"{self.bin(setting)}{'+' if self.sign(setting) > 0 else '-'}"


class FixedBinInstruction(LocalInstruction):
    """Instruction whose arrival bin does not depend on the setting."""

    def __post_init__(self):
        super().__post_init__()
        if self.bins[0] != self.bins[1]:
            raise ValueError("fixed-bin instruction cannot vary its bin")

    @classmethod
    def of(cls, bin: str, signs: tuple[int, int]) -> "FixedBinInstruction":
        return cls((bin, bin), signs)


def all_instructions() -> tuple[LocalInstruction, ...]:
    """All 16 per-party instructions (bin and sign free per setting)."""
    choices = tuple((b, s) for b in BINS for s in SIGNS)
    return tuple(
        LocalInstruction((b0, b1), (s0, s1))
        for (b0, s0) in choices
        for (b1, s1) in choices
    )


def fixed_bin_instructions() -> tuple[FixedBinInstruction, ...]:
    """All 8 per-party instructions with a setting-independent bin."""
    return tuple(
        FixedBinInstruction.of(b, (s0, s1))
        for b in BINS
        for s0 in SIGNS
        for s1 in SIGNS
    )


def _exact(weight) -> bool:
    """An exact weight: a Fraction or an integer (not a bool)."""
    return isinstance(weight, Fraction) or is_integer(weight)


@dataclass(frozen=True)
class StrategyEnsemble:
    """Weighted mixture of joint deterministic strategies.

    ``entries`` pairs each strategy (one instruction per party) with its
    weight. Rational weights make every derived quantity exact.
    """

    entries: tuple[tuple[tuple[LocalInstruction, ...], Fraction | float], ...]

    def __post_init__(self):
        entries = tuple(
            (tuple(strategy), weight) for strategy, weight in self.entries
        )
        if not entries:
            raise ValueError("ensemble cannot be empty")
        n = len(entries[0][0])
        if any(len(strategy) != n for strategy, _ in entries):
            raise ValueError("all strategies must cover the same parties")
        if any(isinstance(weight, bool) for _, weight in entries):
            raise ValueError("weights must be numbers, not bools")
        if any(weight < 0 for _, weight in entries):
            raise ValueError("weights must be nonnegative")
        total = sum(weight for _, weight in entries)
        if all(_exact(w) for _, w in entries):
            if total != 1:
                raise ValueError(f"weights must sum to 1, got {total}")
        elif abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "entries", entries)

    @property
    def n_parties(self) -> int:
        return len(self.entries[0][0])

    @property
    def size(self) -> int:
        return len(self.entries)

    @classmethod
    def single(cls, strategy) -> "StrategyEnsemble":
        return cls(((tuple(strategy), Fraction(1)),))

    @classmethod
    def uniform(cls, strategies) -> "StrategyEnsemble":
        strategies = tuple(tuple(s) for s in strategies)
        w = Fraction(1, len(strategies))
        return cls(tuple((s, w) for s in strategies))

    def flip_party_signs(self, party: int) -> "StrategyEnsemble":
        entries = []
        for strategy, weight in self.entries:
            flipped = tuple(
                instr.flip_signs() if p == party else instr
                for p, instr in enumerate(strategy)
            )
            entries.append((flipped, weight))
        return StrategyEnsemble(tuple(entries))


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


def strategy_table(strategies) -> tuple[np.ndarray, np.ndarray]:
    """Joint strategies as two int8 arrays of shape (strategies, parties,
    settings): bin codes (indices into ``BINS``) and signs."""
    strategies = tuple(strategies)
    bins = np.array(
        [[[BINS.index(b) for b in instr.bins] for instr in s] for s in strategies],
        dtype=np.int8,
    )
    signs = np.array([[instr.signs for instr in s] for s in strategies], dtype=np.int8)
    return bins, signs


def combo_outcomes(bins, signs, combos) -> np.ndarray:
    """Outcome of each tabled strategy under each setting combination, shape
    (strategies, combos): the sign product where :func:`all_equal` selects
    the combination's bins, 0 where it rejects them."""
    combos = np.asarray(combos)
    parties = np.arange(combos.shape[1])
    selected = all_equal(bins[:, parties, combos])
    return np.where(selected, signs[:, parties, combos].prod(axis=-1), 0)


def _weighted_sum(ensemble: StrategyEnsemble, values: np.ndarray) -> list:
    """Sum over strategies of weight times ``values[strategy, ...]``, as
    nested lists. When every weight is exact the sums are taken on integer
    numerators over the weights' common denominator and come out as
    Fractions; otherwise they are float64 sums."""
    weights = [w for _, w in ensemble.entries]
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
    outcomes = combo_outcomes(*strategy_table(s for s, _ in ensemble.entries), tuple(coeffs))
    selected = _weighted_sum(ensemble, outcomes != 0)
    product = _weighted_sum(ensemble, outcomes)
    terms = tuple(p / w if w > 0 else None for p, w in zip(product, selected))
    return PostselectedCorrelations(
        terms=terms,
        mu=mermin_mu(coeffs, terms),
        selection_rate=sum(selected) / len(coeffs),
        selected_fractions=tuple(selected),
    )


# Instruction patterns of the saturating model, one row per pattern, columns
# (A0, A1, B0, B1, C0, C1). A signed token is fixed; a bare letter ranges
# over both signs; "L/S" ranges over all four outcomes. Each pattern is
# selected under exactly one Mermin setting combination and contributes a
# fixed sign there; the full model also contains every S<->L mirrored copy.
_SATURATING_PATTERNS = (
    ("S+", "L", "S+", "L", "L/S", "S+"),
    ("S+", "L", "S-", "L", "L/S", "S-"),
    ("S-", "L", "S+", "L", "L/S", "S-"),
    ("S-", "L", "S-", "L", "L/S", "S+"),
    ("S+", "L", "L", "S+", "S+", "L/S"),
    ("S+", "L", "L", "S-", "S-", "L/S"),
    ("S-", "L", "L", "S+", "S-", "L/S"),
    ("S-", "L", "L", "S-", "S+", "L/S"),
    ("L", "S+", "S+", "L", "S+", "L/S"),
    ("L", "S+", "S-", "L", "S-", "L/S"),
    ("L", "S-", "S+", "L", "S-", "L/S"),
    ("L", "S-", "S-", "L", "S+", "L/S"),
    ("L", "S+", "L", "S+", "L/S", "S-"),
    ("L", "S+", "L", "S-", "L/S", "S+"),
    ("L", "S-", "L", "S+", "L/S", "S+"),
    ("L", "S-", "L", "S-", "L/S", "S-"),
)


def _cell_options(token: str) -> tuple[tuple[str, int], ...]:
    if token == "L/S":
        return (("S", 1), ("S", -1), ("L", 1), ("L", -1))
    bin_, sign = token[0], token[1:]
    if sign == "+":
        return ((bin_, 1),)
    if sign == "-":
        return ((bin_, -1),)
    return ((bin_, 1), (bin_, -1))


def saturating_model() -> StrategyEnsemble:
    """Uniform instruction ensemble reaching ``mu = 4`` under bin coincidence.

    Expands the 16 patterns above plus their S<->L mirrors (512 strategies).
    Under the all-bins-equal rule each pattern family is selected for exactly
    one setting combination, where its fixed signs multiply to the designated
    +1, +1, +1, -1; a quarter of the weight survives selection and every
    single-party outcome S+, S-, L+, L- occurs with probability 1/4.
    """
    strategies = []
    for row in _SATURATING_PATTERNS:
        per_party = []
        for p in range(3):
            opts0 = _cell_options(row[2 * p])
            opts1 = _cell_options(row[2 * p + 1])
            per_party.append(
                tuple(
                    LocalInstruction((b0, b1), (s0, s1))
                    for (b0, s0) in opts0
                    for (b1, s1) in opts1
                )
            )
        strategies.extend(itertools.product(*per_party))
    mirrored = [
        tuple(instr.swap_bins() for instr in strategy) for strategy in strategies
    ]
    return StrategyEnsemble.uniform(tuple(strategies) + tuple(mirrored))


def marginal_distribution(ensemble: StrategyEnsemble):
    """Outcome weights per (party, setting) over the tokens S+, S-, L+, L-.

    A token is listed when some strategy of the ensemble produces it, even
    with zero weight.
    """
    bins, signs = strategy_table(s for s, _ in ensemble.entries)
    produced = (2 * bins + (signs < 0))[..., None] == np.arange(len(TOKENS))
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


def _joint_strategies(instructions):
    """Table of ``itertools.product(instructions, repeat=3)``, in that order,
    with each row's instruction indices, and its outcomes under the
    three-party Mermin combinations with their term signs ``2 c_s = +-1``."""
    bins, signs = strategy_table((instr,) for instr in instructions)
    idx = np.indices((len(instructions),) * 3).reshape(3, -1).T
    coeffs = mermin_coefficients(3)
    outcomes = combo_outcomes(bins[idx, 0], signs[idx, 0], tuple(coeffs))
    return outcomes, np.array([int(2 * c) for c in coeffs.values()]), idx


def max_mu_setting_dependent() -> SearchResult:
    """Exhaustive maximum of postselected mu over unrestricted instructions.

    Enumerates all 16^3 joint deterministic strategies. Because each
    conditional term is bounded by 1 in magnitude, any ensemble realizing
    the term pattern (+1, +1, +1, -1) is maximal; the witness mixes, for
    each setting combination, the first strategy selected exclusively there
    with the designated sign, which drives mu to exactly 4.
    """
    instructions = all_instructions()
    outcomes, term_signs, idx = _joint_strategies(instructions)
    exclusive = np.count_nonzero(outcomes, axis=1) == 1
    witnesses = []
    for k, target in enumerate(term_signs):
        match = exclusive & (outcomes[:, k] == target)
        if not match.any():
            raise RuntimeError("no exclusive strategy for a Mermin combination")
        witnesses.append(tuple(instructions[i] for i in idx[match.argmax()]))
    witness = StrategyEnsemble.uniform(witnesses)
    correlations = evaluate_postselected(witness)
    return SearchResult(
        mu_max=Fraction(correlations.mu),
        witness=witness,
        correlations=correlations,
        strategies_examined=len(idx),
    )


def max_mu_setting_independent() -> SearchResult:
    """Exhaustive maximum of postselected mu over fixed-bin instructions.

    With setting-independent bins a strategy is selected for all four
    combinations or none, so every mixture's mu is a weighted average of
    single-strategy values and the maximum over the 8^3 joint strategies is
    the maximum over all ensembles. The witness is the first maximizer.
    """
    instructions = fixed_bin_instructions()
    outcomes, term_signs, idx = _joint_strategies(instructions)
    selected = outcomes.any(axis=1)
    if not selected.any():
        raise RuntimeError("no fixed-bin strategy is ever selected")
    mu = np.where(selected, np.abs(outcomes @ term_signs), -1)
    best = int(mu.argmax())
    witness = StrategyEnsemble.single(tuple(instructions[i] for i in idx[best]))
    return SearchResult(
        mu_max=Fraction(int(mu[best])),
        witness=witness,
        correlations=evaluate_postselected(witness),
        strategies_examined=len(idx),
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
    flipped = base.flip_party_signs(0)
    p = t / 4
    w_keep = (1 + p) / 2
    w_flip = (1 - p) / 2
    entries = tuple(
        (strategy, weight * w_keep) for strategy, weight in base.entries
    ) + tuple((strategy, weight * w_flip) for strategy, weight in flipped.entries)
    return StrategyEnsemble(entries)


def mermin_classical_bound(n: int) -> Fraction:
    """Deterministic (no-postselection) bound of the scaled Mermin
    polynomial, recomputed by exhaustive enumeration of the 4^n local sign
    assignments rather than assumed."""
    coeffs = mermin_coefficients(n)
    terms = np.array(list(coeffs))
    denom = math.lcm(*(c.denominator for c in coeffs.values()))
    numerators = np.array([int(c * denom) for c in coeffs.values()])
    pairs = tuple(itertools.product(SIGNS, repeat=2))
    assignments = np.array(list(itertools.product(pairs, repeat=n)), dtype=np.int8)
    products = assignments[:, np.arange(n), terms].prod(axis=-1)
    return Fraction(2 * int(np.abs(products @ numerators).max()), denom)


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
        trials = int(schedule)
        if trials < 1:
            raise ValueError("need at least one trial")
        settings = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    else:
        settings = np.asarray(schedule, dtype=np.int8)
        if settings.ndim != 2 or settings.shape[1] != n:
            raise ValueError("schedule must be a (trials, parties) array")
        if settings.size and not np.isin(settings, (0, 1)).all():
            raise ValueError("settings must be 0 or 1")
        trials = settings.shape[0]
    weights = np.array([float(w) for _, w in ensemble.entries])
    weights = weights / weights.sum()
    picks = rng.choice(len(ensemble.entries), size=trials, p=weights)
    bin_lut, sign_lut = strategy_table(s for s, _ in ensemble.entries)
    party_idx = np.arange(n)[None, :]
    bins = bin_lut[picks[:, None], party_idx, settings]
    signs = sign_lut[picks[:, None], party_idx, settings]
    return EventTable(settings, bins, signs, all_equal(bins), BINS)


def ensemble_to_json(ensemble: StrategyEnsemble) -> dict:
    """JSON form: an exact weight (Fraction or int) as a fraction string, a
    float as a number."""
    entries = []
    for strategy, weight in ensemble.entries:
        entries.append(
            {
                "parties": [
                    {"bins": list(instr.bins), "signs": list(instr.signs)}
                    for instr in strategy
                ],
                "weight": str(weight) if _exact(weight) else weight,
            }
        )
    return {"entries": entries}


def ensemble_from_json(data: dict) -> StrategyEnsemble:
    """Strict inverse of :func:`ensemble_to_json`: a string weight is an exact
    :class:`~fractions.Fraction`, a number a float."""
    json_fields(data, "ensemble", ("entries",))
    if not isinstance(data["entries"], list):
        raise ValueError(f"entries must be a list, got {data['entries']!r}")
    entries = []
    for k, item in enumerate(data["entries"]):
        json_fields(item, f"entries[{k}]", ("parties", "weight"))
        parties = item["parties"]
        if not isinstance(parties, list) or not parties:
            raise ValueError(f"entries[{k}].parties must be a non-empty list, got {parties!r}")
        strategy = []
        for p, party in enumerate(parties):
            where = f"entries[{k}].parties[{p}]"
            json_fields(party, where, ("bins", "signs"))
            for key in ("bins", "signs"):
                if not isinstance(party[key], list):
                    raise ValueError(f"{where}.{key} must be a list, got {party[key]!r}")
            try:
                strategy.append(LocalInstruction(tuple(party["bins"]), tuple(party["signs"])))
            except ValueError as exc:
                raise ValueError(f"{where}.{exc}") from None
        raw = item["weight"]
        if isinstance(raw, str):
            try:
                weight = Fraction(raw)
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"entries[{k}].weight {raw!r} is not a fraction") from None
        else:
            weight = json_real(raw, f"entries[{k}].weight")
        entries.append((tuple(strategy), weight))
    return StrategyEnsemble(tuple(entries))
