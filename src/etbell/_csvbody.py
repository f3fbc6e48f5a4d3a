"""The events CSV body tokenizer behind :meth:`etbell.events.EventTable.read_csv`.

It takes only the writer's form: records ended by ``\\r\\n``, six fields each,
``-?[0-9]+`` integers and bin labels of at most 7 UTF-8 bytes. The body is read
in bounded binary blocks, split by byte compares and decoded with array
arithmetic, each distinct bin label once. ``read_csv`` imports this module on
its first call, so the commands that only write events never compile it.
"""

from __future__ import annotations

import numpy as np

from .events import CSV_COLUMNS

_LF, _CR, _COMMA, _MINUS = b"\n\r,-"


def body_columns(fh, codes, block_size):
    """Yield the six int64 columns of each block of records read from binary
    ``fh``, the bin labels as their codes in ``codes``. A block is
    ``block_size`` bytes read on from the end of the last whole record. Raise
    ``ValueError`` naming the line (the header is line 1) of the first record
    with the wrong field count, no ``\\r\\n`` at its end, a field that is no
    integer or a refused bin label."""
    carry, line = b"", 2
    seen = [np.array([-1]), np.array([-1])]  # the label keys met so far, sorted, and their codes
    while True:
        data = fh.read(max(block_size, len(carry)))  # a long record doubles the read
        if not data:
            if carry:
                raise ValueError(f"line {line}: record does not end in \\r\\n")
            return
        block = carry + data
        del data
        buf = np.frombuffer(block, np.uint8)
        at = np.flatnonzero((buf == _COMMA) | (buf == _LF))  # each field's end
        ends = np.flatnonzero(buf[at] == _LF)
        carry = block[at[ends[-1]] + 1 if ends.size else 0 :]
        # after k well-formed records, the next one ends at the (6k + 6)th field end
        wrong = (ends != np.arange(5, 6 * len(ends), 6)) | (buf[at[ends] - 1] != _CR)
        rows = np.argmax(wrong) if wrong.any() else len(ends)  # the well-formed records first
        if rows:
            yield _columns(block, at[: 6 * rows], codes, seen, line)
        line += rows
        if rows < len(ends):
            fields = ends[rows] - (ends[rows - 1] if rows else -1)
            if fields != 6:
                raise ValueError(f"line {line}: {fields} fields, expected 6")
            raise ValueError(f"line {line}: record does not end in \\r\\n")


def _columns(block: bytes, at, codes, seen, line) -> list[np.ndarray]:
    """The six int64 columns of the whole records of ``block``
    whose field ends are ``at``, the first record on line ``line``."""
    buf = np.frombuffer(block, np.uint8)
    rows = len(at) // 6
    end = at.reshape(rows, 6).T  # one row per column, in place: the caller is done with at
    first = np.zeros(rows, np.int64)  # where each record starts, after the last one's LF
    first[1:] = end[5, :-1] + 1
    end[5] -= 1  # the selected field ends at the CR
    trial, trial_bad = _integers(buf, first, end[0])
    small, small_bad = _integers(  # party, setting, sign and selected in one pass
        buf, (end[[0, 1, 3, 4]] + 1).ravel(), end[[1, 2, 4, 5]].ravel()
    )
    bad = np.vstack([trial_bad, small_bad.reshape(4, rows)])
    # the bin labels up to the first bad integer, so that the first bad line is named
    r = np.argmax(bad.any(axis=0)) if bad.any() else rows
    bins = _bin_codes(block, buf, end[2, : r + 1] + 1, end[3, : r + 1], codes, seen, line)
    if r < rows:
        k = (0, 1, 2, 4, 5)[np.argmax(bad[:, r])]
        text = block[end[k - 1, r] + 1 if k else first[r] : end[k, r]].decode(errors="replace")
        raise ValueError(f"line {line + r}: {CSV_COLUMNS[k]} {text!r} is not a 64-bit integer")
    party, setting, sign, selected = small.reshape(4, rows)
    return [trial, party, setting, bins, sign, selected]


def _integers(buf, start, end) -> tuple[np.ndarray, np.ndarray]:
    """The fields ``buf[start:end]`` as int64, and which of them are no
    ``-?[0-9]+`` of an int64 value."""
    neg = buf[start] == _MINUS
    first = start + neg
    size = end - first
    shortest, longest = int(size.min()), int(size.max())
    del size  # made again only for a field too short or too long
    values, worst, at = np.zeros(len(end), np.int64), np.zeros(len(end), np.uint8), np.empty_like(end)
    for j in range(min(longest, 19), 0, -1):  # digit by digit, from the left
        np.subtract(end, j, out=at)
        digit = buf[at]
        digit -= 48  # a byte that is no digit wraps past 9
        if j > shortest:  # in a shorter field this byte lies before the digits
            digit *= at >= first
        np.maximum(worst, digit, out=worst)
        values *= 10
        values += digit
    bad = worst > 9
    if shortest < 1 or longest > 18:  # 19 digits wrap in int64 but are exact as uint64
        size = end - first
        bad |= (size < 1) | (size > 19) | (values.view(np.uint64) > np.uint64(2**63 - 1) + neg)
    np.negative(values, out=values, where=neg)  # modulo 2**64, so -2**63 comes out right
    return values, bad


def _bin_codes(block: bytes, buf, start, end, codes, seen, line) -> np.ndarray:
    """Codes of the bin labels ``block[start:end]`` from ``codes``, each
    distinct byte string decoded once, in order of first appearance.

    A field's first 7 bytes are one integer key in bijective base 257, exact
    for a field of up to 7 bytes, looked up in ``seen``: the keys met so far,
    sorted, and their codes. A longer field, or one without a match, is
    decoded as UTF-8 and looked up in ``codes``, which refuses a label the
    writer could not write."""
    size = end - start
    places = min(int(size.max()), 7)
    key = np.zeros(len(start), np.int64)
    for i in range(places):
        at = start + i
        key *= 257
        key += (buf.take(at, mode="clip") + np.int64(1)) * (at < end)  # 0 past the end
    key *= 257 ** (7 - places)
    keys, known = seen
    pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
    code = known[pos]
    miss = np.flatnonzero((keys[pos] != key) | (size > 7))
    if not miss.size:
        return code
    new = {}  # the code of each byte string without a match
    for k in miss.tolist():  # new labels are coded in order of appearance
        field = block[start[k] : end[k]]
        if field not in new:
            try:
                new[field] = codes[field.decode()]
            except ValueError as exc:  # a refused label, or no UTF-8
                raise ValueError(f"line {line + k}: {exc}") from None
        code[k] = new[field]
    fresh, first = np.unique(key[miss], return_index=True)
    at = np.searchsorted(keys, fresh)
    seen[:] = [np.insert(keys, at, fresh), np.insert(known, at, code[miss[first]])]
    return code

