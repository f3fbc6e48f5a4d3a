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
a low-digit table), and a mask drops the pad bytes. The reader counts the
records to size one flat int8 grid per field, then tokenizes the body with
array compares, a block of bytes at a time (:mod:`etbell._csvbody`), checks
that record k is cell ``(k // n, k % n)`` and writes the block straight into
the grids, so a read peaks at the finished table, about 4 bytes per CSV row,
plus one block's arrays: 7.4 to 8.7 bytes per row on 100k-trial streams.
The generators and :func:`setting_tally`, the one pass both statistics read,
walk the trials :data:`BLOCK_TRIALS` at a time, so they need the table plus
one block. The tally adds up exact block ``bincount``s (integer counts,
integer-valued float sums), so no block size changes its result, and refuses
a table of no parties or of more than the quantum correlators take.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .mermin import mermin_coefficients, mermin_mu
from .numerics import MAX_CORRELATOR_ENTRIES, open_replacing

# Bin labels of the two emission bins, ``t1 = t0 + delta_t``, of the source and the quantum sampler.
TIME_BINS = ("t0", "t1")
CSV_COLUMNS = ("trial", "party", "setting", "bin", "sign", "selected")
_CSV_HEADER = (",".join(CSV_COLUMNS) + "\r\n").encode()
# Bytes of padded rows the writer renders per block, so its memory does not grow with the table.
CSV_BLOCK_BYTES = 2**18
# Bytes of the CSV body the reader tokenizes per block (see etbell._csvbody).
CSV_READ_BYTES = 2**16
# Trials a statistic or generator handles at a time (see the module docstring).
BLOCK_TRIALS = 4096
# Bin codes are at most int16, so a table holds at most this many labels.
_MAX_BIN_LABELS = 2**15


def trial_blocks(trials: int):
    """Slices of :data:`BLOCK_TRIALS` consecutive trials covering ``range(trials)``."""
    return (slice(start, start + BLOCK_TRIALS) for start in range(0, trials, BLOCK_TRIALS))


def all_equal(bins) -> np.ndarray:
    """Coincidence rule: keep a joint outcome iff all bins agree.

    ``bins`` holds one bin per party on its last axis; the result is a
    boolean array over the leading axes (a 0-d one for a single outcome).
    """
    bins = np.asarray(bins)
    return (bins == bins[..., :1]).all(axis=-1)


class EventTable:
    """Columnar event stream: one row per trial, one column per party.

    Read-only arrays: :attr:`settings` (0/1) and :attr:`signs` (+1/-1) in
    int8 and :attr:`bins` (codes into :attr:`bin_labels`) in int8, int16 past
    128 labels, all (trials, parties); :attr:`selected`, one bool per trial.
    The table is immutable. ``_adopt`` takes fresh arrays the package built
    for the table over without a copy where their types allow.
    """

    def __init__(self, settings, bins, signs, selected, bin_labels=("S", "L"), _adopt=False):
        # Check values before narrowing to int8/int16, which would wrap 257 to 1.
        settings, bins, signs = np.asarray(settings), np.asarray(bins), np.asarray(signs)
        selected = (np.asarray if _adopt else np.array)(selected, dtype=bool)
        bin_labels = tuple(bin_labels)
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
        if len(bin_labels) > _MAX_BIN_LABELS:
            raise ValueError(f"at most {_MAX_BIN_LABELS} bin labels, got {len(bin_labels)}")
        _LabelCodes(bin_labels)  # distinct labels the CSV codec takes
        if bins.size and not (0 <= bins.min() and bins.max() < len(bin_labels)):
            raise ValueError("bin code outside bin_labels")
        copy = not _adopt
        settings, signs = settings.astype(np.int8, copy=copy), signs.astype(np.int8, copy=copy)
        # the narrowest type that holds every code: int8 up to 128 labels
        bins = bins.astype(np.int8 if len(bin_labels) <= 128 else np.int16, copy=copy)
        for arr in (settings, bins, signs, selected):
            arr.setflags(write=False)
        vars(self).update(settings=settings, bins=bins, signs=signs, selected=selected, bin_labels=bin_labels)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable event table")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable event table")

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
        ``bin_labels`` the labels are taken in order of first appearance.
        Of several faults the first refused is, in this order: a bad form
        anywhere in the file, a record out of order, a label not in
        ``bin_labels``, a selected flag but 0 or 1, a trial of mixed flags,
        and then the checks of :class:`EventTable` itself."""
        from ._csvbody import body_columns

        codes = _LabelCodes(bin_labels or ())
        n_known = len(codes)
        with open(path, "rb") as fh:
            if fh.read(len(_CSV_HEADER)) != _CSV_HEADER:
                raise ValueError(f"unexpected CSV header in {path}")
            # every record of a file that reads ends in an LF, so their count sizes the grids
            size = sum(_count_lf(block) for block in iter(lambda: fh.read(CSV_READ_BYTES), b""))
            fh.seek(len(_CSV_HEADER))
            grids = [np.empty(size, np.int8) for _ in range(4)]  # settings, bins, signs, flags
            # the records placed, in order; the leading trial-0 run's length (None while it
            # lasts) and the record after it; every trial-0 record; the first one out of order
            rows, run, after, zeros, off = 0, None, None, 0, None
            for trial, party, *columns in body_columns(fh, codes, CSV_READ_BYTES):
                zeros += len(trial) - np.count_nonzero(trial)
                if off is not None:  # tokenize on to the end, for its faults and trial-0 count
                    continue
                if run is None and trial.any():
                    k = int(np.argmax(trial != 0))
                    run, after = rows + k, _cell(trial[k], party[k])
                span = rows + len(trial) if run is None else max(run, 1)  # (0, k) while the run lasts
                t, p = np.divmod(np.arange(rows, rows + len(trial)), span)
                bad = (trial != t) | (party != p)
                if bad.any():
                    k = int(np.argmax(bad))
                    off, expected, found = rows + k, _cell(t[k], p[k]), _cell(trial[k], party[k])
                    continue
                if len(codes) > 128 and grids[1].dtype == np.int8:
                    grids[1] = grids[1].astype(np.int16)
                # no bad value may wrap to a good one; a code past int16 is refused with its labels
                setting, bins, sign, selected = columns
                for grid, column in zip(grids, (_int8(setting), bins, _int8(sign), _int8(selected))):
                    grid[rows : rows + len(trial)] = column
                rows += len(trial)
        if not size:
            raise ValueError("event CSV contains no rows")
        n = max(rows if run is None else run, 1)
        if off is None and rows % n:  # a last trial cut short
            off, expected, found = rows, _cell(*divmod(rows, n)), "the end of the file"
        elif off is not None and run is not None and run <= off and run < zeros:
            # n counts every trial-0 record, so the record after the leading run is out of order
            off, expected, found = run, _cell(0, run), after
        if off is not None:
            raise ValueError(f"line {off + 2}: expected {expected}, found {found}")
        if bin_labels is None:
            bin_labels = tuple(codes)
        elif len(codes) > n_known:
            raise ValueError(f"bin label {list(codes)[n_known]!r} not in {bin_labels}")
        settings, bins, signs, flags = (grid.reshape(-1, n) for grid in grids)
        if not _all_in(flags, 0, 1):
            raise ValueError("selected flags must be 0 or 1")
        mixed = np.flatnonzero((flags != flags[:, :1]).any(axis=1))
        if mixed.size:
            raise ValueError(f"inconsistent selected flags in trial {mixed[0]}")
        return cls(settings, bins, signs, flags[:, 0] == 1, bin_labels, _adopt=True)


_cell = "trial {}, party {}".format


def _count_lf(block: bytes) -> int:
    """The LF bytes in ``block``, counted faster than ``bytes.count`` does."""
    return int(np.count_nonzero(np.frombuffer(block, np.uint8) == ord("\n")))


def _int8(column) -> np.ndarray:
    """``column`` with each value outside int8 clipped to -128 or 127, so that
    none wraps to a valid one on the cast and a bad one stays bad."""
    return column if -128 <= column.min() and column.max() <= 127 else column.clip(-128, 127)


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


def setting_tally(table: EventTable):
    """Per setting combination, a binary number with the first party's bit
    highest (the order of :func:`mermin_coefficients`): the trials, the
    selected trials and their summed sign product, in one pass over ``table``.
    Refuses no parties, or 2^n settings x 2^n outcomes past
    ``MAX_CORRELATOR_ENTRIES``, before it counts anything."""
    n = table.n_parties
    if n < 1:
        raise ValueError("need at least one party")
    if 4**n > MAX_CORRELATOR_ENTRIES:
        raise ValueError(f"{n} parties: 2^{n} settings x 2^{n} outcomes exceed {MAX_CORRELATOR_ENTRIES} entries")
    trials, selected = np.zeros((2, 1 << n), np.int64)
    sums = np.zeros(1 << n)
    for rows in trial_blocks(table.n_trials):
        code = np.ravel_multi_index(table.settings[rows].T, (2,) * n)
        keep = table.selected[rows]
        chosen = code[keep]
        trials += np.bincount(code, minlength=1 << n)
        selected += np.bincount(chosen, minlength=1 << n)
        sums += np.bincount(chosen, weights=table.signs[rows][keep].prod(axis=1), minlength=1 << n)
    return trials, selected, sums


class EmpiricalCorrelations(NamedTuple):
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
    tally = setting_tally(table)
    coeffs = mermin_coefficients(table.n_parties)
    combos = np.ravel_multi_index(np.array(list(coeffs)).T, (2,) * table.n_parties)
    combo_counts, selected_counts, sums = (a[combos].tolist() for a in tally)
    terms = [s / k if k else None for s, k in zip(sums, selected_counts)]
    rates = [k / m if m else None for k, m in zip(selected_counts, combo_counts)]
    rate = None if None in rates else float(sum(rates) / len(rates))
    return EmpiricalCorrelations(
        terms=tuple(terms),
        mu=mermin_mu(coeffs, terms),
        combo_counts=tuple(combo_counts),
        selected_counts=tuple(selected_counts),
        selection_rates=tuple(rates),
        selection_rate=rate,
    )
