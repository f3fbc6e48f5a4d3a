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
for every model. A table stores each field as one small-integer
(trials, parties) array, so million-trial runs stay cheap, and its CSV
codec works on whole arrays. The writer renders a block of trials as bytes:
each cell gathers a pre-rendered row suffix by an integer code, after its
trial number (the block's high digits, then a row of a low-digit table), and
a mask drops the pad bytes. The reader tokenizes the body with array
compares, one block of bytes at a time (:mod:`etbell._csvbody`), keeps each
column of a block in the narrowest integer type that holds its values, checks
the (trial, party) grid, then places the blocks into the table one by one and
lets each go once placed, so a read peaks at about 12 bytes per CSV row.
"""

from __future__ import annotations

import csv
import io
import itertools
from dataclasses import InitVar, dataclass, fields
from fractions import Fraction

import numpy as np

from .numerics import open_replacing

CSV_COLUMNS = ("trial", "party", "setting", "bin", "sign", "selected")
# Bytes of padded rows the writer renders per block, so its memory does not grow with the table.
CSV_BLOCK_BYTES = 2**18
# Bytes of the CSV body tokenized per block (see etbell._csvbody).
CSV_CHUNK_ROWS = 2**16
# Bin codes are at most int16, so a table holds at most this many labels.
_MAX_BIN_LABELS = 2**15


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
    bins: np.ndarray  # (trials, parties) codes into bin_labels, int16 past 128 labels
    signs: np.ndarray  # (trials, parties) int8, values +1/-1
    selected: np.ndarray  # (trials,) bool
    bin_labels: tuple[str, ...] = ("S", "L")
    # Take the arrays over without a copy where their types allow, and make
    # them read-only: only for fresh arrays the package built for the table.
    _adopt: InitVar[bool] = False

    def __post_init__(self, _adopt=False):
        # Check values before narrowing to int8/int16, which would wrap 257 to 1.
        settings = np.asarray(self.settings)
        bins = np.asarray(self.bins)
        signs = np.asarray(self.signs)
        selected = (np.asarray if _adopt else np.array)(self.selected, dtype=bool)
        if settings.ndim != 2:
            raise ValueError("settings must be a (trials, parties) array")
        if bins.shape != settings.shape or signs.shape != settings.shape:
            raise ValueError("settings, bins, and signs must share one shape")
        if selected.shape != (settings.shape[0],):
            raise ValueError("selected must have one flag per trial")
        if not _all_in(settings, 0, 1):
            raise ValueError("settings must be 0 or 1")
        if not _all_in(signs, -1, 1):
            raise ValueError("signs must be +1 or -1")
        if len(self.bin_labels) > _MAX_BIN_LABELS:
            raise ValueError(f"at most {_MAX_BIN_LABELS} bin labels, got {len(self.bin_labels)}")
        _LabelCodes(self.bin_labels)  # distinct strings
        if bins.size and not (0 <= bins.min() and bins.max() < len(self.bin_labels)):
            raise ValueError("bin code outside bin_labels")
        copy = not _adopt
        settings, signs = settings.astype(np.int8, copy=copy), signs.astype(np.int8, copy=copy)
        # the narrowest type that holds every code: int8 up to 128 labels
        bins = bins.astype(np.int8 if len(self.bin_labels) <= 128 else np.int16, copy=copy)
        for field, arr in zip(fields(self), (settings, bins, signs, selected)):
            arr.setflags(write=False)
            object.__setattr__(self, field.name, arr)
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
        ``party,setting,bin,sign,selected`` once; the body is then written as
        bytes, a block of trials at a time: a power of ten of them (at least
        10) whose rows, padded to the longest, fit in :data:`CSV_BLOCK_BYTES`.
        An empty table is refused, and an existing file at ``path`` is
        replaced, not truncated (:func:`open_replacing`).
        """
        if not len(self):
            raise ValueError(f"cannot write an empty event table of shape {self.settings.shape}")
        parties, n_labels = self.n_parties, len(self.bin_labels)
        buf = io.StringIO()
        writer = csv.writer(buf)
        party = np.arange(parties)
        with open_replacing(path, newline="") as fh:
            fh.buffer.write(",".join(CSV_COLUMNS).encode() + b"\r\n")
            suffixes = []
            for row in itertools.product(range(parties), (0, 1), self.bin_labels, (1, -1), (0, 1)):
                buf.seek(0)
                buf.truncate()
                writer.writerow(row)
                suffixes.append(buf.getvalue().encode(fh.encoding))
            width = np.array([len(s) for s in suffixes])
            # a row: trial number and comma right-aligned after NUL pad, then suffix and pad, in
            # 8-byte words; first/low hold block 0's numbers and the low m digits of later ones
            pre, pad = (-(-k // 8) * 8 for k in (len(f"{self.n_trials - 1},"), width.max()))
            m = max(1, len(str(CSV_BLOCK_BYTES // (parties * (pre + pad)))) - 1)
            first, low = (
                np.frombuffer("".join(f.rjust(pre, "\0") for f in texts).encode(), np.uint64)
                .reshape(10**m, 1, -1)
                for texts in ([f"{t}," for t in range(10**m)], [f"{t:0{m}}," for t in range(10**m)])
            )
            mask = (np.arange(pre + pad) < pre + width[:, None]).view(np.uint64)
            table = np.frombuffer(b"".join(bytes(pre) + s.ljust(pad) for s in suffixes), np.uint64)
            for start in range(0, self.n_trials, 10**m):
                rows = slice(start, start + 10**m)
                # the suffix's position in the itertools.product above
                code = (party * 2 + self.settings[rows]) * n_labels + self.bins[rows]
                code = code * 4 + (self.signs[rows] < 0) * 2 + self.selected[rows, None]
                high = bytes(pre - len(str(start)) - 1) + str(start)[:-m].encode() + bytes(m + 1)
                trials = (low | np.frombuffer(high, np.uint64) if start else first)[: len(code)]
                line, keep = table.reshape(mask.shape).take(code, axis=0), mask.take(code, axis=0)
                line[..., : pre // 8] = trials
                keep[..., : pre // 8] = (trials.view(np.uint8) != 0).view(np.uint64)
                fh.buffer.write(line.view(np.uint8)[keep.view(bool)])

    @classmethod
    def read_csv(cls, path, bin_labels: tuple[str, ...] | None = None) -> "EventTable":
        """Read the CSV wire format. Every row must have one integer field per
        column but ``bin``, every ``(trial, party)`` cell of the grid must
        appear exactly once, and the parties of one trial must agree on
        ``selected``; a violation names the first offending line or cell.
        Blank lines are skipped. Without ``bin_labels`` the labels are taken
        in order of first appearance. The body is tokenized and narrowed
        :data:`CSV_CHUNK_ROWS` bytes at a time; the grid is checked before
        any chunk is placed."""
        from ._csvbody import body_columns, first_malformed_line

        codes = _LabelCodes(bin_labels or ())
        n_known = len(codes)
        with open(path, newline="") as fh:
            header, encoding = fh.readline(), fh.encoding
        if tuple(next(csv.reader([header]), ())) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        chunks = []
        with open(path, "rb") as fh:
            fh.seek(len(header))  # the header matched, so it is ASCII: a byte per character
            try:
                chunks.extend(body_columns(fh, codes, encoding, CSV_CHUNK_ROWS))
            except ValueError:
                raise first_malformed_line(path) from None
        if not chunks:
            raise ValueError("event CSV contains no rows")
        for trial, party, *_ in chunks:
            k = np.argmax((trial < 0) | (party < 0))  # the first negative index, if any
            if trial[k] < 0 or party[k] < 0:
                raise ValueError(f"negative index in trial {trial[k]}, party {party[k]}")
        shape = tuple(max(int(chunk[k].max()) for chunk in chunks) + 1 for k in (0, 1))
        _check_grid(chunks, shape)
        if bin_labels is None:
            bin_labels = tuple(codes)
        elif len(codes) > n_known:
            raise ValueError(f"bin label {list(codes)[n_known]!r} not in {bin_labels}")
        if not all(_all_in(chunk[5], 0, 1) for chunk in chunks):
            raise ValueError("selected flags must be 0 or 1")
        settings, bins, signs = grids = [
            np.empty(shape, np.result_type(*{chunk[k].dtype for chunk in chunks})) for k in range(2, 5)
        ]
        # per trial: some party selected it, some party rejected it
        selected, rejected = np.zeros(shape[0], bool), np.zeros(shape[0], bool)
        while chunks:  # place each chunk, then let it go
            trial, party, *columns, flags = chunks.pop()
            cells = np.ravel_multi_index((trial, party), shape)
            for out, column in zip(grids, columns):
                out.ravel()[cells] = column
            selected[trial[flags == 1]] = True
            rejected[trial[flags == 0]] = True
        mixed = np.flatnonzero(selected & rejected)
        if mixed.size:
            raise ValueError(f"inconsistent selected flags in trial {mixed[0]}")
        return cls(settings, bins, signs, selected, bin_labels)


def _all_in(values, a, b) -> bool:
    """Whether every entry of ``values`` is ``a`` or ``b``, where ``a < b`` and
    no integer but 0 lies between them. An integer array is checked with
    reductions alone, no temporary of its size."""
    if values.dtype.kind not in "biu":
        return np.count_nonzero(values == a) + np.count_nonzero(values == b) == values.size
    if not values.size:
        return True
    inside = a <= values.min() and values.max() <= b
    return inside and (b - a == 1 or np.count_nonzero(values) == values.size)


def _check_grid(chunks, shape) -> None:
    """Raise unless each ``(trial, party)`` cell of the ``shape`` grid appears
    exactly once in ``chunks``: the first duplicate, else the first missing
    cell in trial-major order."""
    rows = sum(len(chunk[0]) for chunk in chunks)
    hit = np.zeros(rows, dtype=bool)
    # T * P == rows cells, every one hit; only then is every cell index below
    # rows, so none can wrap in int64
    if shape[0] * shape[1] == rows:
        for trial, party, *_ in chunks:
            hit[np.ravel_multi_index((trial, party), shape)] = True
    if hit.all():
        return
    pairs = np.column_stack([np.concatenate([chunk[k] for chunk in chunks]) for k in (0, 1)])
    cells, counts = np.unique(pairs, axis=0, return_counts=True)  # sorted trial-major
    duplicate = np.flatnonzero(counts > 1)
    if duplicate.size:
        t, p = cells[duplicate[0]]
        raise ValueError(f"duplicate event for trial {t}, party {p}")
    # cells is sorted and unique, so the first gap is the first missing cell
    grid = np.column_stack(np.divmod(np.arange(len(cells)), shape[1]))
    gap = np.flatnonzero((cells != grid).any(axis=1))
    t, p = divmod(int(gap[0]) if gap.size else len(cells), shape[1])
    raise ValueError(f"missing event for trial {t}, party {p}")


class _LabelCodes(dict):
    """Bin label -> code, from distinct string ``labels``; an unseen label gets the next code,
    so the labels met in a file are coded in order of first appearance."""

    def __init__(self, labels=()):
        for label in labels:
            if not isinstance(label, str):
                raise ValueError(f"bin label {label!r} is not a string")
            if label in self:
                raise ValueError(f"duplicate bin label {label!r}")
            self[label] = len(self)

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
    n = table.n_parties
    coeffs = mermin_coefficients(n)
    # a setting string read as a binary number, the first party's bit highest
    code = np.ravel_multi_index(table.settings.T, (2,) * n)
    combos = np.ravel_multi_index(np.array(list(coeffs)).T, (2,) * n)
    chosen = code[table.selected]
    prod = table.signs[table.selected].prod(axis=1)
    combo_counts = np.bincount(code, minlength=1 << n)[combos].tolist()
    selected_counts = np.bincount(chosen, minlength=1 << n)[combos].tolist()
    sums = np.bincount(chosen, weights=prod, minlength=1 << n)[combos].tolist()
    terms = [s / k if k else None for s, k in zip(sums, selected_counts)]
    rates = [k / m if m else None for k, m in zip(selected_counts, combo_counts)]
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
