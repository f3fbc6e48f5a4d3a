"""The events CSV body tokenizer behind :meth:`etbell.events.EventTable.read_csv`.

The body is read in bounded binary blocks and split into records and fields
by byte compares, integer fields are decoded with array arithmetic, and each
distinct bin label is decoded once. Only an integer field that is no plain
``-?[0-9]+`` is decoded by itself. ``read_csv`` imports this module on its
first call, so the commands that only write events never compile it.
"""

from __future__ import annotations

import csv
import re

import numpy as np

from .events import CSV_COLUMNS

# An integer field: an optional sign and ASCII digits, blanks around them
# (with an int64 value).
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")
_LF, _CR, _QUOTE, _COMMA, _MINUS = b'\n\r",-'
_NARROW = [
    (t, int(np.iinfo(t).min), int(np.iinfo(t).max))
    for t in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64)
]


def body_columns(fh, codes, encoding, block_size):
    """Tokenize the CSV body read from binary ``fh`` and yield the six
    columns of each block's records, each in its narrowest integer type, the
    bin labels as their codes in ``codes``. Raise ``ValueError`` at a record
    with the wrong field count or a field that is no integer.

    A comma, LF, CR or CRLF outside quotes (:func:`_quoted`) ends a field,
    the last three also a record, and an empty record is skipped, as
    ``csv.reader`` splits them. A block is ``block_size`` bytes read on from
    the end of the last whole record, so it starts outside quotes; the bytes
    after its last whole record carry over to the next block. An
    ASCII-compatible ``encoding`` is assumed.
    """
    carry = b""
    # the byte strings met so far (see _bin_codes); no field of one piece has digest -1
    seen = [np.array([-1]), np.array([-1]), np.array([1]), np.array([0]), np.array([-1])]
    while True:
        data = fh.read(max(block_size, len(carry)))  # a long record doubles the read
        final = not data
        block = carry + data + b"\n" * final
        del data
        buf = np.frombuffer(block, np.uint8)
        candidate = buf < _MINUS  # each separator and quote; no digit and no '-'
        candidate[1:] &= (buf[:-1] != _CR) | (buf[1:] != _LF)  # a CRLF ends one record
        at = np.flatnonzero(candidate)
        del candidate
        v = buf[at]
        eol = (v == _LF) | (v == _CR)
        sep = eol | (v == _COMMA)
        if _QUOTE in block:
            sep &= ~_quoted(block, at, v)
        if final:
            sep[-1] = True  # the end of the file ends the last record
        eol &= sep
        ends = np.flatnonzero(eol)
        if not ends.size:
            carry = block
            continue
        last = ends[-1]
        carry = block[at[last] + 1 + (block[at[last] : at[last] + 2] == b"\r\n") :]
        at, v, eol, sep = at[: last + 1], v[: last + 1], eol[: last + 1], sep[: last + 1]
        if not sep.all():
            at, eol = at[sep], eol[sep]
            ends = np.flatnonzero(eol)
        # a record starts after the previous one's end, both bytes of a CRLF
        previous = at[ends[:-1]]
        record_start = np.zeros_like(ends)
        record_start[1:] = previous + 1
        record_start[1:] += (buf[previous] == _CR) & (buf[previous + 1] == _LF)
        blank = record_start == at[ends]
        if blank.any():  # skip empty records
            record_start = record_start[~blank]
            sep = np.ones_like(eol)
            sep[ends[blank]] = False
            at, eol = at[sep], eol[sep]
        rows = len(record_start)
        if len(at) != 6 * rows or not eol[5::6].all():
            raise ValueError("wrong field count")
        if rows:
            at = at.reshape(rows, 6).T.copy()  # field ends, one contiguous row per column
            del v, eol, sep, ends, previous
            small = _integers(  # party, setting, sign and selected in one pass
                block, (at[[0, 1, 3, 4]] + 1).ravel(), at[[1, 2, 4, 5]].ravel(), encoding
            ).reshape(4, rows)
            columns = [
                _integers(block, record_start, at[0], encoding), small[0], small[1],
                _bin_codes(block, at[2] + 1, at[3], codes, seen, encoding), small[2], small[3],
            ]
            # free the block's arrays before making the narrow ones, which outlive the read
            del buf, at, record_start, small
            yield [_narrowest(column) for column in columns]
        if final:
            return


def _narrowest(column) -> np.ndarray:
    """``column`` in the narrowest integer type that holds its values exactly,
    so that a bad value stays bad for the later checks and every message."""
    lo, hi = int(column.min()), int(column.max())
    return column.astype(next(t for t, t_lo, t_hi in _NARROW if t_lo <= lo and hi <= t_hi))


def _quoted(block: bytes, at, v) -> np.ndarray:
    """Which candidates ``at`` of ``block`` (with bytes ``v``) lie inside
    quotes. A quote opens a quoted field only at the field's start; inside,
    a doubled quote is a literal one and a single quote closes the field. So
    in a run of adjacent quotes only an odd length changes the state: an odd
    run after a separator (or at the start) flips it, and any other odd run
    closes a quoted field or is literal, which leaves the state outside."""
    buf = np.frombuffer(block, np.uint8)
    quote = np.flatnonzero(v == _QUOTE)
    q = at[quote]
    run = np.flatnonzero(np.diff(q, prepend=-2) != 1)  # where each run of quotes starts
    run = run[np.diff(run, append=len(q)) & 1 == 1]  # the odd runs
    p = q[run]
    before = buf[p - 1]  # a run at byte 0 wraps to the last byte, overridden below
    flips = (before == _COMMA) | (before == _LF) | (before == _CR) | (p == 0)
    count = np.cumsum(flips)
    inside = (count - np.maximum.accumulate(np.where(flips, 0, count))) & 1  # flips since outside
    change = np.zeros(len(at), bool)  # at each odd run's first quote
    change[quote[run]] = np.diff(inside, prepend=0) != 0
    return np.logical_xor.accumulate(change)


def _integers(block: bytes, start, end, encoding) -> np.ndarray:
    """The integer fields ``block[start:end]`` as int64. A plain ``-?[0-9]+``
    field of at most 18 digits is decoded with array arithmetic, any other
    one by itself under the :data:`_INT_FIELD` rule; a field neither accepts
    raises ``ValueError``."""
    buf = np.frombuffer(block, np.uint8)
    neg = buf[start] == _MINUS
    first = start + neg
    size = end - first
    shortest, longest = int(size.min()), int(size.max())
    values, worst = np.zeros(len(end), np.int64), np.zeros(len(end), np.uint8)
    for j in range(min(longest, 18), 0, -1):  # digit by digit, from the left
        at = end - j
        digit = buf[at]
        digit -= 48  # a byte that is no digit wraps past 9
        if j > shortest:  # in a shorter field this byte lies before the digits
            digit *= at >= first
        np.maximum(worst, digit, out=worst)
        values *= 10
        values += digit
    if neg.any():
        np.negative(values, out=values, where=neg)
    bad = worst > 9
    if shortest < 1 or longest > 18:
        bad |= (size < 1) | (size > 18)
    for k in np.flatnonzero(bad):
        text = _unquote(block[start[k] : end[k]], encoding)
        if not (_INT_FIELD.fullmatch(text) and -(2**63) <= int(text.strip()) < 2**63):
            raise ValueError(f"{text!r} is not a 64-bit integer")
        values[k] = int(text.strip())  # int() keeps '\x1c'-'\x1f', which \s and strip() take
    return values


def _bin_codes(block: bytes, start, end, codes, seen, encoding) -> np.ndarray:
    """Codes of the bin labels ``block[start:end]`` from ``codes``, each
    distinct byte string decoded once, in order of first appearance.

    A field is packed into integers (:func:`_pieces`): its head, the first 7
    bytes, then its tail, 7 bytes a piece. It is looked up by a digest of
    them in ``seen``, the byte strings met so far as five arrays: their
    sorted digests; their codes and piece counts; where their tails start in
    the last array, of all their tail pieces. A match of digest, count and
    tail is a match of the bytes (the head is the digest less the tail's
    part); a field without one is looked up by its bytes."""
    buf = np.frombuffer(block, np.uint8)
    size = end - start
    head = _pieces(buf, start, end, min(int(size.max()), 7))
    n = np.maximum(-(-size // 7), 1)  # pieces, the head included
    long = np.flatnonzero(n > 1)
    tail_n = n[long] - 1
    digest = head
    if long.size:
        digest = head.copy()
        tail_first = np.cumsum(tail_n) - tail_n
        offset = np.arange(tail_first[-1] + tail_n[-1]) - np.repeat(tail_first, tail_n)
        at0 = np.repeat(start[long] + 7, tail_n) + 7 * offset
        tail = _pieces(buf, at0, np.repeat(end[long], tail_n), 7)
        digest[long] += np.add.reduceat(tail * (offset * 1_000_003 + 7), tail_first)  # wraps
    known, known_codes, known_n, known_first, known_tail = seen
    pos = np.minimum(np.searchsorted(known, digest), len(known) - 1)
    hit = (known[pos] == digest) & (known_n[pos] == n)
    if long.size:
        theirs = known_tail.take(np.repeat(known_first[pos[long]], tail_n) + offset, mode="clip")
        hit[long] &= np.logical_and.reduceat(tail == theirs, tail_first)
    code = known_codes[pos]
    if hit.all():
        return code
    new = {}  # the byte strings without a match, at their first field
    for k in np.flatnonzero(~hit).tolist():  # new labels are coded in order of appearance
        field = block[start[k] : end[k]]
        if field in new:
            code[k] = code[new[field]]
        else:
            new[field] = k
            code[k] = codes[_unquote(field, encoding)]
    # into ``seen``, after any string of the same digest, which lookups keep finding
    fresh = np.array(list(new.values()))
    fresh_tail_n = n[fresh] - 1
    tails = [
        tail[tail_first[i] : tail_first[i] + tail_n[i]]
        for i in np.searchsorted(long, fresh[fresh_tail_n > 0]).tolist()
    ]
    columns = [
        digest[fresh], code[fresh], n[fresh],
        np.cumsum(fresh_tail_n) - fresh_tail_n + len(known_tail),
    ]
    digests = columns[0].tolist()
    order = sorted(range(len(fresh)), key=digests.__getitem__)
    at = np.searchsorted(known, columns[0][order], side="right")
    seen[:4] = [np.insert(table, at, column[order]) for table, column in zip(seen, columns)]
    if tails:
        seen[4] = np.concatenate([known_tail, *tails])
    return code


def _pieces(buf, at0, stop, places) -> np.ndarray:
    """The bytes ``buf[at0:stop]``, of which at most the first ``places``,
    as one integer each in bijective base 257 with 7 places, so that no two
    byte strings of up to 7 bytes share one."""
    piece = np.zeros(len(at0), np.int64)
    for i in range(places):
        at = at0 + i
        piece *= 257
        piece += (buf.take(at, mode="clip") + np.int64(1)) * (at < stop)  # 0 past the end
    return piece * 257 ** (7 - places)


def _unquote(field, encoding) -> str:
    """A field's text: decoded, then unquoted as ``csv.reader`` does."""
    return "".join(next(csv.reader([field.decode(encoding)])))


def first_malformed_line(path) -> ValueError:
    """Name the physical line of the first row with the wrong field count
    or a non-integer field, re-scanning with ``csv.reader``; the tokenizer
    numbers no lines."""
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
                    _INT_FIELD.fullmatch(field) and -(2**63) <= int(field.strip()) < 2**63
                ):
                    return ValueError(
                        f"line {reader.line_num}: {name} {field!r} is not a 64-bit integer"
                    )
    return ValueError(f"malformed event CSV row in {path}")
