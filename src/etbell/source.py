"""Pulsed photon-pair source model and locality audits of event streams.

A femtosecond pump split over a short/long path creates two possible
emission bins ``t0`` and ``t1 = t0 + delta_t``; two photon pairs are emitted
independently, each pair sharing one bin. Shortening the coincidence window
below the path difference discards the cross terms in which the pairs took
different bins, leaving the GHZ-type superposition over the remaining
fourfold coincidences.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import lhv, states  # each executed only by the functions that use it
from .events import TIME_BINS, EventTable, setting_tally
from .numerics import seeded_rng, trial_count

# A chi-square p-value below this marks selection as setting-dependent.
_SIGNIFICANCE = 1e-3


def four_photon_state() -> states.MultiPartyState:
    """State of two independently emitted pairs over the two pump bins:
    equal amplitudes 1/2 on t0t0t0t0, t1t1t1t1, t0t0t1t1, and t1t1t0t0."""
    patterns = ((0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1), (1, 1, 0, 0))
    return states.MultiPartyState((2,) * 4, [(p, 0.5) for p in patterns], (TIME_BINS,) * 4)


def source_event_stream(trials: int, seed: int = 0) -> EventTable:
    """Simulate detection times of the two pairs, trial by trial.

    Each pair draws one bin uniformly and independently of the other pair;
    both photons of a pair always share the bin. A trial is selected iff the
    pairs' bins, and so all four, agree (the fourfold coincidence surviving
    the short window).
    """
    trials = trial_count(trials)
    rng = seeded_rng(seed)
    pair_bins = rng.integers(0, 2, size=(trials, 2), dtype=np.int8)
    bins = pair_bins[:, (0, 0, 1, 1)]
    settings = np.zeros((trials, 4), dtype=np.int8)
    signs = np.ones((trials, 4), dtype=np.int8)
    return EventTable(settings, bins, signs, pair_bins[:, 0] == pair_bins[:, 1], TIME_BINS, _adopt=True)


class PartyAudit(NamedTuple):
    party: int
    counts: tuple[tuple[int, int], tuple[int, int]]  # [setting][rejected, selected]
    chi2: float
    p_value: float
    dependent: bool


class LocalityAuditReport(NamedTuple):
    """Outcome of the selection/setting independence tests.

    ``per_party`` and the joint test are frequency based (chi-square on the
    observed stream). ``counterfactual_dependent`` is the exact check on the
    generating ensemble, when one is supplied: does any positive-weight
    strategy change its selection status across setting combinations? A
    model can pass every frequency test while still being counterfactually
    setting-dependent; that invisibility is precisely the loophole.
    """

    per_party: tuple[PartyAudit, ...]
    joint_chi2: float
    joint_p_value: float
    joint_dependent: bool
    counterfactual_dependent: bool | None

    @property
    def setting_dependent(self) -> bool:
        return (
            any(p.dependent for p in self.per_party)
            or self.joint_dependent
            or bool(self.counterfactual_dependent)
        )


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function ``P(X > x)`` for integer ``df >= 1``.

    Closed forms of Abramowitz & Stegun 26.4.4-26.4.5. Even ``df``:
    ``exp(-x/2) * sum_{j < df/2} (x/2)^j / j!``. Odd ``df``:
    ``erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2) * sum_{j < (df-1)/2} x^j / (2j+1)!!``.
    The finite sum is folded into the exponent, so large statistics give
    small p-values instead of underflowing to zero before they must.
    """
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if x <= 0:
        return 1.0
    half = x / 2
    if df == 1:
        return math.erfc(math.sqrt(half))
    even = df % 2 == 0
    term = total = 1.0
    for j in range(1, df // 2):
        term *= half / j if even else x / (2 * j + 1)
        total += term
    log_series = math.log(total) - half
    if even:
        return math.exp(log_series)
    return math.erfc(math.sqrt(half)) + math.exp(0.5 * math.log(2 * x / math.pi) + log_series)


def _chi2(table: np.ndarray) -> tuple[float, float]:
    """Pearson chi-square of a contingency table (no continuity correction)
    and its p-value; all-zero rows and columns are dropped first."""
    table = table[table.sum(axis=1) > 0][:, table.sum(axis=0) > 0]
    if table.shape[0] < 2 or table.shape[1] < 2:
        return 0.0, 1.0
    observed = table.astype(np.float64)
    expected = np.outer(observed.sum(axis=1), observed.sum(axis=0)) / observed.sum()
    stat = float(((observed - expected) ** 2 / expected).sum())
    df = (table.shape[0] - 1) * (table.shape[1] - 1)
    return stat, chi2_sf(stat, df)


def counterfactual_selection_dependence(ensemble: lhv.StrategyEnsemble) -> bool:
    """Exact loophole check: is some positive-weight strategy selected under
    some setting combinations and rejected under others?"""
    combos = list(itertools.product((0, 1), repeat=ensemble.n_parties))
    # selection depends on the bins alone, so one live strategy per bin pattern will do
    live = {b: s for b, s, w in zip(ensemble.bin_table, ensemble.sign_table, ensemble.weights) if w > 0}
    return any(any(row) and 0 in row for row in lhv.combo_outcomes(list(live), list(live.values()), combos))


def locality_audit(
    events: EventTable, *, ensemble: lhv.StrategyEnsemble | None = None
) -> LocalityAuditReport:
    """Test whether selection frequencies depend on the measurement settings.

    Per party, a 2x2 chi-square of (local setting) x (selected); jointly, a
    chi-square of (full setting combination) x (selected). Degenerate tables
    (a constant margin, e.g. every event selected) count as independent.
    With ``ensemble`` given, the counterfactual dependence of the generating
    model is evaluated exactly as well.
    """
    trials, selected, _ = setting_tally(events)
    n = events.n_parties
    # cube[s_0, ..., s_{n-1}, s]: the trials with party p at setting s_p and selection s
    cube = np.stack([trials - selected, selected], axis=-1).reshape((2,) * n + (2,))
    per_party = []
    for p in range(n):
        counts = cube.sum(axis=tuple(a for a in range(n) if a != p))
        chi2, p_value = _chi2(counts)
        per_party.append(
            PartyAudit(
                party=p,
                counts=tuple(tuple(int(c) for c in row) for row in counts),
                chi2=chi2,
                p_value=p_value,
                dependent=p_value < _SIGNIFICANCE,
            )
        )
    # the joint rows read party p's setting as bit p: that order fixes the chi-square's low bits
    joint_chi2, joint_p = _chi2(cube.transpose(*range(n - 1, -1, -1), n).reshape(-1, 2))
    counterfactual = None if ensemble is None else counterfactual_selection_dependence(ensemble)
    return LocalityAuditReport(
        per_party=tuple(per_party),
        joint_chi2=joint_chi2,
        joint_p_value=joint_p,
        joint_dependent=joint_p < _SIGNIFICANCE,
        counterfactual_dependent=counterfactual,
    )
