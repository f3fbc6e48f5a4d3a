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
for every model. A table stores each field as one (trials, parties) int8
array, so million-trial runs stay cheap, and its CSV codec works on whole
arrays: the writer looks each row up in a table of pre-rendered rows, and
the reader parses the body with one ``np.loadtxt`` call.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

CSV_COLUMNS = ("trial", "party", "setting", "bin", "sign", "selected")
# Trials rendered per write, so the writer's memory does not grow with the table.
CSV_CHUNK_TRIALS = 4096
# One CSV row as np.loadtxt parses it: every column an integer, the bin
# label as its code (see _LabelCodes).
_CSV_DTYPE = np.dtype([(name, np.int64) for name in CSV_COLUMNS])
# An integer field as np.loadtxt accepts it (given an int64 value); used
# only to name a failing line.
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")


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


@dataclass(frozen=True, eq=False)
class EventTable:
    """Columnar event stream: one row per trial, one column per party."""

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

    def __len__(self) -> int:
        """Rows of the CSV wire format: one per (trial, party) cell."""
        return self.n_trials * self.n_parties

    def selection_rate(self) -> float:
        if self.n_trials == 0:
            raise ValueError("empty event table has no selection rate")
        return float(self.selected.mean())

    def write_csv(self, path) -> None:
        """Write the CSV wire format: the :data:`CSV_COLUMNS` header, then one
        row per (trial, party) cell in trial-major order, with ``\\r\\n`` line
        ends and csv's minimal quoting of bin labels.

        ``csv.writer`` renders each distinct row suffix
        ``party,setting,bin,sign,selected`` once; every cell then picks its
        suffix by an integer code and gets its trial number prepended,
        :data:`CSV_CHUNK_TRIALS` trials at a time. An existing regular file at
        ``path`` is unlinked and written anew, not truncated.
        """
        parties, n_labels = self.n_parties, len(self.bin_labels)
        buf = io.StringIO()
        writer = csv.writer(buf)
        suffixes = []
        for row in itertools.product(range(parties), (0, 1), self.bin_labels, (1, -1), (0, 1)):
            buf.seek(0)
            buf.truncate()
            writer.writerow(row)
            suffixes.append(buf.getvalue())
        suffixes = np.array(suffixes, dtype=object)
        party = np.arange(parties)
        if os.path.isfile(path) and not os.path.islink(path):
            # Replace a regular file instead of truncating it: ext4 flushes a
            # file truncated to zero to disk when it is closed, a wait of
            # tenths of a second that follows the disk's load. A symlink is
            # written through, as before.
            os.unlink(path)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerow(CSV_COLUMNS)
            for start in range(0, self.n_trials, CSV_CHUNK_TRIALS):
                rows = slice(start, start + CSV_CHUNK_TRIALS)
                # the suffix's position in the itertools.product above
                code = (party * 2 + self.settings[rows]) * n_labels + self.bins[rows]
                code = code * 4 + (self.signs[rows] < 0) * 2 + self.selected[rows, None]
                trials = np.arange(start, start + len(code)).astype(str).astype(object) + ","
                fh.write("".join(np.repeat(trials, parties) + suffixes[code.ravel()]))

    @classmethod
    def read_csv(cls, path, bin_labels: tuple[str, ...] | None = None) -> "EventTable":
        """Read the CSV wire format. Every row must have one integer field per
        column but ``bin``, every ``(trial, party)`` cell of the grid must
        appear exactly once, and the parties of one trial must agree on
        ``selected``; a violation names the first offending line or cell.
        Blank lines are skipped. Without ``bin_labels`` the labels are taken
        in order of first appearance."""
        codes = _LabelCodes({label: k for k, label in enumerate(bin_labels or ())})
        n_known = len(codes)
        with open(path, newline="") as fh:
            if tuple(next(csv.reader([fh.readline()]), ())) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header in {path}")
            with warnings.catch_warnings():
                # an empty body is reported below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                try:
                    data = np.loadtxt(
                        fh,
                        delimiter=",",
                        quotechar='"',
                        comments=None,
                        dtype=_CSV_DTYPE,
                        ndmin=1,
                        converters={CSV_COLUMNS.index("bin"): codes.__getitem__},
                    )
                except ValueError as exc:
                    raise _first_malformed_line(path, exc) from None
        if not data.size:
            raise ValueError("event CSV contains no rows")
        trial, party = data["trial"], data["party"]
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
            bin_labels = tuple(codes)
        elif len(codes) > n_known:
            raise ValueError(f"bin label {list(codes)[n_known]!r} not in {bin_labels}")

        def grid(values):
            out = np.empty(shape, dtype=np.int64)
            out[trial, party] = values
            return out

        flags = grid(data["selected"])
        if not ((flags == 0) | (flags == 1)).all():
            raise ValueError("selected flags must be 0 or 1")
        mixed = np.flatnonzero((flags != flags[:, :1]).any(axis=1))
        if mixed.size:
            raise ValueError(f"inconsistent selected flags in trial {mixed[0]}")
        settings, signs = grid(data["setting"]), grid(data["sign"])
        return cls(settings, grid(data["bin"]), signs, flags[:, 0] == 1, bin_labels)


def _first_malformed_line(path, error: ValueError) -> ValueError:
    """Name the physical line of the row ``np.loadtxt`` rejected.

    loadtxt numbers rows, not lines, so re-scan with ``csv.reader`` and
    return the first row with the wrong field count or a non-integer field,
    or ``error`` itself if no row is found."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                continue  # blank line
            if len(row) != len(CSV_COLUMNS):
                return ValueError(
                    f"line {reader.line_num}: {len(row)} fields, expected {len(CSV_COLUMNS)}"
                )
            for name, field in zip(CSV_COLUMNS, row):
                if name != "bin" and not (
                    _INT_FIELD.fullmatch(field) and -(2**63) <= int(field) < 2**63
                ):
                    return ValueError(
                        f"line {reader.line_num}: {name} {field!r} is not a 64-bit integer"
                    )
    return error


class _LabelCodes(dict):
    """Bin label -> code; an unseen label gets the next code.

    ``np.loadtxt`` calls ``__getitem__`` on each bin field, so the column is
    parsed straight to integer codes, with the labels in order of first
    appearance, and no string outlives its row."""

    def __missing__(self, label: str) -> int:
        self[label] = code = len(self)
        return code


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
