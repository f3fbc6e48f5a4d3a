"""Shared event plumbing: the n-party Mermin polynomial, columnar event
tables, the CSV wire format, and empirical postselected-correlation
estimates.

:func:`mermin_coefficients` is the one statement of the Mermin polynomial:
every term list in the package (quantum correlators, local-model ensembles,
event streams) iterates its setting strings in the order it returns them,
and :func:`mermin_mu` turns the terms into ``mu``. For three parties the
terms are ``<A0 B0 C1>, <A0 B1 C0>, <A1 B0 C0>, <A1 B1 C1>`` and
``mu = |t1 + t2 + t3 - t4|``; for two it is the CHSH combination.

Both the hidden-variable simulators and the quantum samplers emit
:class:`EventTable`; downstream coincidence analysis is therefore identical
for every model. A table behaves as a sequence of :class:`EventRecord`
(one record per party per trial) while storing everything columnar, so
million-trial runs stay cheap.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple

import numpy as np

CSV_COLUMNS = ("trial", "party", "setting", "bin", "sign", "selected")


def mermin_coefficients(n: int) -> dict[tuple[int, ...], Fraction]:
    """Exact coefficients of the n-party Mermin polynomial.

    Built by the recursion ``M_k = (M_{k-1} (B0 + B1) + M'_{k-1} (B0 - B1))/2``
    where the primed polynomial swaps every setting index; the base case is
    the single setting-0 observable. The returned map sends a setting string
    ``s in {0,1}^n`` to the coefficient of the product observable
    ``O_{1,s_1} x ... x O_{n,s_n}``. The whole functional is scaled by 2 at
    evaluation time (:func:`mermin_mu`), so n=3 has coefficients ``+-1/2``
    and n=2 is the CHSH combination.
    """
    if n < 1:
        raise ValueError("need at least one party")
    coeffs: dict[tuple[int, ...], Fraction] = {(0,): Fraction(1)}
    for _ in range(n - 1):
        support = set(coeffs) | {tuple(1 - x for x in s) for s in coeffs}
        nxt: dict[tuple[int, ...], Fraction] = {}
        for s in sorted(support):
            c = coeffs.get(s, Fraction(0))
            cp = coeffs.get(tuple(1 - x for x in s), Fraction(0))
            plus = (c + cp) / 2
            minus = (c - cp) / 2
            if plus:
                nxt[s + (0,)] = plus
            if minus:
                nxt[s + (1,)] = minus
        coeffs = nxt
    return coeffs


def mermin_mu(coeffs, terms):
    """``mu = |2 sum_s c_s t_s|`` over ``terms`` in the order of ``coeffs``
    (a :func:`mermin_coefficients` map), or ``None`` when any term is
    undefined. Fraction terms give an exact Fraction."""
    if any(t is None for t in terms):
        return None
    return abs(2 * sum(c * t for c, t in zip(coeffs.values(), terms)))


def all_equal(bins) -> np.ndarray:
    """Coincidence rule: keep a joint outcome iff all bins agree.

    ``bins`` holds one bin per party on its last axis; the result is a
    boolean array over the leading axes (a 0-d one for a single outcome).
    """
    bins = np.asarray(bins)
    return (bins == bins[..., :1]).all(axis=-1)


class EventRecord(NamedTuple):
    trial: int
    party: int
    setting: int
    bin: str
    sign: int
    selected: bool


@dataclass(frozen=True, eq=False)
class EventTable:
    """Columnar event stream; indexable as a flat sequence of records."""

    settings: np.ndarray  # (trials, parties) int8
    bins: np.ndarray  # (trials, parties) int8, codes into bin_labels
    signs: np.ndarray  # (trials, parties) int8, values +1/-1
    selected: np.ndarray  # (trials,) bool
    bin_labels: tuple[str, ...] = ("S", "L")

    def __post_init__(self):
        # Check values before narrowing to int8, which would wrap 257 to 1.
        settings = np.asarray(self.settings)
        bins = np.asarray(self.bins)
        signs = np.asarray(self.signs)
        selected = np.array(self.selected, dtype=bool)
        if settings.ndim != 2:
            raise ValueError("settings must be a (trials, parties) array")
        if bins.shape != settings.shape or signs.shape != settings.shape:
            raise ValueError("settings, bins, and signs must share one shape")
        if selected.shape != (settings.shape[0],):
            raise ValueError("selected must have one flag per trial")
        if not ((settings == 0) | (settings == 1)).all():
            raise ValueError("settings must be 0 or 1")
        if not ((signs == 1) | (signs == -1)).all():
            raise ValueError("signs must be +1 or -1")
        if bins.size and not (0 <= bins.min() and bins.max() < len(self.bin_labels)):
            raise ValueError("bin code outside bin_labels")
        settings, bins, signs = (a.astype(np.int8) for a in (settings, bins, signs))
        for arr in (settings, bins, signs, selected):
            arr.setflags(write=False)
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "bins", bins)
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "selected", selected)
        object.__setattr__(self, "bin_labels", tuple(self.bin_labels))

    @property
    def n_trials(self) -> int:
        return self.settings.shape[0]

    @property
    def n_parties(self) -> int:
        return self.settings.shape[1]

    def record(self, trial: int, party: int) -> EventRecord:
        return EventRecord(
            trial=trial,
            party=party,
            setting=int(self.settings[trial, party]),
            bin=self.bin_labels[self.bins[trial, party]],
            sign=int(self.signs[trial, party]),
            selected=bool(self.selected[trial]),
        )

    def __len__(self) -> int:
        return self.n_trials * self.n_parties

    def __getitem__(self, index: int) -> EventRecord:
        if not isinstance(index, (int, np.integer)):
            raise TypeError("event tables index by flat integer position")
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("event index out of range")
        trial, party = divmod(int(index), self.n_parties)
        return self.record(trial, party)

    def __iter__(self) -> Iterator[EventRecord]:
        for trial in range(self.n_trials):
            for party in range(self.n_parties):
                yield self.record(trial, party)

    def selection_rate(self) -> float:
        if self.n_trials == 0:
            raise ValueError("empty event table has no selection rate")
        return float(self.selected.mean())

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for rec in self:
                writer.writerow(
                    (rec.trial, rec.party, rec.setting, rec.bin, rec.sign, int(rec.selected))
                )

    @classmethod
    def read_csv(cls, path, bin_labels: tuple[str, ...] | None = None) -> "EventTable":
        """Read the CSV wire format. Every row must have one field per
        column, every ``(trial, party)`` cell of the grid must appear exactly
        once, and the parties of one trial must agree on ``selected``; a
        violation names the first offending line or cell."""
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if tuple(next(reader, ())) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header in {path}")
            rows = []
            for row in reader:
                if len(row) != len(CSV_COLUMNS):
                    if not row:
                        continue  # blank line
                    raise ValueError(
                        f"line {reader.line_num}: {len(row)} fields, expected {len(CSV_COLUMNS)}"
                    )
                rows.append(row)
        if not rows:
            raise ValueError("event CSV contains no rows")
        column = {name: k for k, name in enumerate(CSV_COLUMNS)}
        trial = np.array([int(r[column["trial"]]) for r in rows])
        party = np.array([int(r[column["party"]]) for r in rows])
        negative = np.flatnonzero((trial < 0) | (party < 0))
        if negative.size:
            k = negative[0]
            raise ValueError(f"negative index in trial {trial[k]}, party {party[k]}")
        shape = (int(trial.max()) + 1, int(party.max()) + 1)
        cells, counts = np.unique(trial * shape[1] + party, return_counts=True)
        duplicate = np.flatnonzero(counts > 1)
        if duplicate.size:
            t, p = divmod(int(cells[duplicate[0]]), shape[1])
            raise ValueError(f"duplicate event for trial {t}, party {p}")
        # cells is sorted and unique, so the first gap is the first missing cell
        gap = np.flatnonzero(cells != np.arange(cells.size))
        missing = int(gap[0]) if gap.size else cells.size
        if missing < shape[0] * shape[1]:
            t, p = divmod(missing, shape[1])
            raise ValueError(f"missing event for trial {t}, party {p}")
        if bin_labels is None:
            bin_labels = tuple(dict.fromkeys(r[column["bin"]] for r in rows))
        code = {label: k for k, label in enumerate(bin_labels)}

        def grid(name, convert=int):
            k = column[name]
            out = np.empty(shape, dtype=np.int64)
            out[trial, party] = [convert(r[k]) for r in rows]
            return out

        try:
            bins = grid("bin", code.__getitem__)
        except KeyError as exc:
            raise ValueError(f"bin label {exc.args[0]!r} not in {bin_labels}") from None
        flags = grid("selected")
        if not ((flags == 0) | (flags == 1)).all():
            raise ValueError("selected flags must be 0 or 1")
        mixed = np.flatnonzero((flags != flags[:, :1]).any(axis=1))
        if mixed.size:
            raise ValueError(f"inconsistent selected flags in trial {mixed[0]}")
        return cls(grid("setting"), bins, grid("sign"), flags[:, 0] == 1, bin_labels)


@dataclass(frozen=True)
class EmpiricalCorrelations:
    """Monte-Carlo estimate of the postselected Mermin quantities."""

    terms: tuple[float | None, ...]
    mu: float | None
    combo_counts: tuple[int, ...]
    selected_counts: tuple[int, ...]
    selection_rates: tuple[float | None, ...]
    selection_rate: float | None


def mermin_estimate(table: EventTable) -> EmpiricalCorrelations:
    """Conditional sign-product means over the Mermin setting combinations
    of the table's party count.

    A combination with no selected trials yields ``None`` for its term
    (undefined, deliberately distinct from zero).
    """
    coeffs = mermin_coefficients(table.n_parties)
    prod = table.signs.prod(axis=1)
    terms: list[float | None] = []
    combo_counts: list[int] = []
    selected_counts: list[int] = []
    rates: list[float | None] = []
    for combo in coeffs:
        mask = (table.settings == np.array(combo, dtype=np.int8)).all(axis=1)
        sel = mask & table.selected
        combo_counts.append(int(mask.sum()))
        selected_counts.append(int(sel.sum()))
        terms.append(float(prod[sel].mean()) if sel.any() else None)
        rates.append(float(sel.sum() / mask.sum()) if mask.any() else None)
    rate = None
    if all(r is not None for r in rates):
        rate = float(sum(rates) / len(rates))
    return EmpiricalCorrelations(
        terms=tuple(terms),
        mu=mermin_mu(coeffs, terms),
        combo_counts=tuple(combo_counts),
        selected_counts=tuple(selected_counts),
        selection_rates=tuple(rates),
        selection_rate=rate,
    )
