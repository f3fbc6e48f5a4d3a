"""Shared event plumbing: columnar event tables, the CSV wire format, and
empirical postselected-correlation estimates over the terms of the Mermin
polynomial (:mod:`etbell.mermin`).

Both the hidden-variable simulators and the quantum samplers emit
:class:`EventTable`; downstream coincidence analysis is therefore identical
for every model. A table stores each field as one small-integer
(trials, parties) array, so million-trial runs stay cheap, and its CSV
codec works on whole arrays. The CSV format is strict: the reader takes only
what the writer writes, and a bin label is at most 7 UTF-8 bytes without
``,``, ``"``, CR or LF, so it is written as it stands. The writer renders a
block of trials as bytes: each cell gathers a pre-rendered row suffix by an
integer code, after its trial number (the block's high digits, then a row of
a low-digit table), and a mask drops the pad bytes. The reader tokenizes the
body with array compares, a block of bytes at a time (:mod:`etbell._csvbody`),
keeps each column of a block in the narrowest integer type that holds it and
checks that record k is cell ``(k // n, k % n)``, then places each block by
its position, so a read peaks at about 12 bytes per CSV row.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, fields

import numpy as np

from .mermin import mermin_coefficients, mermin_mu
from .numerics import open_replacing

CSV_COLUMNS = ("trial", "party", "setting", "bin", "sign", "selected")
_CSV_HEADER = (",".join(CSV_COLUMNS) + "\r\n").encode()
# Bytes of padded rows the writer renders per block, so its memory does not grow with the table.
CSV_BLOCK_BYTES = 2**18
# Bytes of the CSV body the reader tokenizes per block (see etbell._csvbody).
CSV_READ_BYTES = 2**16
# Bin codes are at most int16, so a table holds at most this many labels.
_MAX_BIN_LABELS = 2**15


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
        _LabelCodes(self.bin_labels)  # distinct labels the CSV codec takes
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
        """Write the CSV wire format in UTF-8: the :data:`CSV_COLUMNS` header,
        then one row per (trial, party) cell in trial-major order, every line
        ended by ``\\r\\n``, each bin label as it stands.

        Each distinct row suffix ``party,setting,bin,sign,selected`` is
        rendered once; the body is then written as bytes, a block of trials at
        a time: a power of ten of them (at least 10) whose rows, padded to the
        longest, fit in :data:`CSV_BLOCK_BYTES`.
        An empty table is refused, and an existing file at ``path`` is
        replaced, not truncated (:func:`open_replacing`).
        """
        if not len(self):
            raise ValueError(f"cannot write an empty event table of shape {self.settings.shape}")
        parties, n_labels = self.n_parties, len(self.bin_labels)
        party = np.arange(parties)
        rows = itertools.product(range(parties), (0, 1), self.bin_labels, (1, -1), (0, 1))
        suffixes = [f"{','.join(map(str, row))}\r\n".encode() for row in rows]
        with open_replacing(path) as fh:
            fh.buffer.write(_CSV_HEADER)
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
        """Read the CSV wire format only as :meth:`write_csv` writes it: each
        record, the last too, ends in ``\\r\\n`` and holds a ``-?[0-9]+`` int64
        field per column but ``bin``. Any other form (a blank line, another line
        end, quoting, padding) is refused, naming the first bad line. With n
        trial-0 records, record k must be cell ``(k // n, k % n)``: the first
        record out of that order, or the end of a file that cuts its last trial
        short, is refused naming its line, the cell expected and the cell found.
        The parties of one trial must agree on ``selected``. Without
        ``bin_labels`` the labels are taken in order of first appearance."""
        from ._csvbody import body_columns

        codes = _LabelCodes(bin_labels or ())
        n_known = len(codes)
        with open(path, "rb") as fh:
            if fh.read(len(_CSV_HEADER)) != _CSV_HEADER:
                raise ValueError(f"unexpected CSV header in {path}")
            chunks = list(body_columns(fh, codes, CSV_READ_BYTES))
        if not chunks:
            raise ValueError("event CSV contains no rows")
        n = max(sum(int(np.count_nonzero(chunk[0] == 0)) for chunk in chunks), 1)
        rows, found = 0, None  # the records in order so far, and what stands after them
        for chunk in chunks:  # check each chunk's cells, then let its trial and party go
            trial, party = chunk[:2]
            del chunk[:2]
            t, p = np.divmod(np.arange(rows, rows + len(trial)), n)
            off = np.flatnonzero((trial != t) | (party != p))
            if off.size:
                k = int(off[0])
                rows, found = rows + k, f"trial {trial[k]}, party {party[k]}"
                break
            rows += len(trial)
        if found or rows % n:  # a record out of order, or a last trial cut short
            found = found or "the end of the file"
            raise ValueError(f"line {rows + 2}: expected trial {rows // n}, party {rows % n}, found {found}")
        if bin_labels is None:
            bin_labels = tuple(codes)
        elif len(codes) > n_known:
            raise ValueError(f"bin label {list(codes)[n_known]!r} not in {bin_labels}")
        if not all(_all_in(chunk[3], 0, 1) for chunk in chunks):
            raise ValueError("selected flags must be 0 or 1")
        settings, bins, signs, flags = grids = [
            np.empty((rows // n, n), np.result_type(*{chunk[k].dtype for chunk in chunks})) for k in range(4)
        ]
        stop = rows
        while chunks:  # place each chunk by its position, then let it go
            columns = chunks.pop()
            start = stop - len(columns[0])
            for out, column in zip(grids, columns):
                out.ravel()[start:stop] = column
            stop = start
        mixed = np.flatnonzero((flags != flags[:, :1]).any(axis=1))
        if mixed.size:
            raise ValueError(f"inconsistent selected flags in trial {mixed[0]}")
        return cls(settings, bins, signs, flags[:, 0] == 1, bin_labels, _adopt=True)


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


class _LabelCodes(dict):
    """Bin label -> code, from distinct string ``labels``; an unseen label gets the next code,
    so the labels met in a file are coded in order of first appearance. A label is one the
    CSV writer writes as it stands and the reader keys exactly by its first 7 bytes."""

    def __init__(self, labels=()):
        for label in labels:
            self[label] = len(self)

    def __setitem__(self, label, code):
        if not isinstance(label, str):
            raise ValueError(f"bin label {label!r} is not a string")
        if label in self:
            raise ValueError(f"duplicate bin label {label!r}")
        try:
            encoded = label.encode()
        except UnicodeEncodeError:  # a lone surrogate
            raise ValueError(f"bin label {label!r} is not valid UTF-8 text") from None
        if len(encoded) > 7:
            raise ValueError(f"bin label {label!r} is longer than 7 UTF-8 bytes")
        if any(c in label for c in ',"\r\n'):
            raise ValueError(f"bin label {label!r} holds ',', '\"', CR or LF")
        super().__setitem__(label, code)

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
