import csv
import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from etbell.events import (
    CSV_COLUMNS,
    EventTable,
    all_equal,
    mermin_estimate,
)
from etbell.lhv import event_stream, saturating_model
from etbell.source import source_event_stream


def _small_table():
    # three trials, three parties, hand-picked values
    settings = [[0, 0, 1], [0, 1, 0], [1, 1, 1]]
    bins = [[0, 0, 0], [0, 1, 0], [1, 1, 1]]
    signs = [[1, -1, 1], [1, 1, 1], [-1, -1, -1]]
    selected = [True, False, True]
    return EventTable(settings, bins, signs, selected, ("S", "L"))


def test_all_equal():
    assert all_equal(("S", "S", "S"))
    assert not all_equal(("S", "L", "S"))
    assert all_equal((0, 0))
    assert all_equal(("S",))


def _reference_write_csv(table, path):
    """The per-row ``csv.writer`` loop the vectorised writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for trial in range(table.n_trials):
            for party in range(table.n_parties):
                writer.writerow(
                    (
                        trial,
                        party,
                        int(table.settings[trial, party]),
                        table.bin_labels[table.bins[trial, party]],
                        int(table.signs[trial, party]),
                        int(table.selected[trial]),
                    )
                )


def _assert_same_events(again, table):
    """Equal columns and equal decoded bin labels; the label tuples may differ."""
    assert again.settings.shape == table.settings.shape
    for column in ("settings", "signs", "selected"):
        assert (getattr(again, column) == getattr(table, column)).all()
    decoded = [np.array(t.bin_labels, dtype=object)[t.bins] for t in (again, table)]
    assert (decoded[0] == decoded[1]).all()


def test_event_table_validation():
    with pytest.raises(ValueError):
        EventTable([[0, 0]], [[0, 0, 0]], [[1, 1]], [True])
    with pytest.raises(ValueError):
        EventTable([[0, 0]], [[0, 5]], [[1, 1]], [True], ("S", "L"))
    with pytest.raises(ValueError):
        EventTable([[0, 0]], [[0, 0]], [[1, 1]], [True, False])


def test_event_table_dimensions():
    table = _small_table()
    assert table.n_trials == 3
    assert table.n_parties == 3
    assert len(table) == 9  # CSV rows, one per (trial, party) cell


def test_selection_rate():
    assert _small_table().selection_rate() == pytest.approx(2.0 / 3.0)


def test_csv_round_trip(tmp_path):
    table = _small_table()
    path = tmp_path / "events.csv"
    table.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    again = EventTable.read_csv(path)
    _assert_same_events(again, table)
    forced = EventTable.read_csv(path, bin_labels=("S", "L"))
    _assert_same_events(forced, table)
    assert (forced.bins == table.bins).all()


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        EventTable.read_csv(path)


def test_mermin_estimate_exact_small_case():
    table = _small_table()
    est = mermin_estimate(table)
    # combo (0,0,1): trial 0 selected, product 1*-1*1 = -1
    assert est.terms[0] == -1.0
    # combo (0,1,0): trial 1 present but rejected -> undefined
    assert est.terms[1] is None
    # combo (1,1,1): trial 2 selected, product -1
    assert est.terms[3] == -1.0
    assert est.mu is None
    assert est.combo_counts == (1, 1, 0, 1)
    assert est.selected_counts == (1, 0, 0, 1)


def test_mermin_estimate_two_parties_is_chsh():
    # rows: settings, signs, selected; all bins equal, selection given
    rows = [
        ((0, 0), (1, 1), True),
        ((0, 0), (-1, -1), True),
        ((0, 0), (1, -1), True),
        ((0, 0), (-1, -1), True),
        ((0, 1), (-1, -1), True),
        ((1, 0), (1, -1), True),
        ((1, 0), (1, 1), False),
        ((1, 1), (-1, 1), True),
        ((1, 1), (1, -1), True),
    ]
    settings, signs, selected = zip(*rows)
    est = mermin_estimate(EventTable(settings, [[0, 0]] * len(rows), signs, selected))
    # CHSH terms in the order (0,0), (0,1), (1,0), (1,1), by hand:
    # (1 + 1 - 1 + 1)/4, 1, -1 (one trial rejected), (-1 - 1)/2
    assert est.terms == (0.5, 1.0, -1.0, -1.0)
    assert est.mu == abs(0.5 + 1.0 - 1.0 - (-1.0)) == 1.5
    assert est.combo_counts == (4, 1, 2, 2)
    assert est.selected_counts == (4, 1, 1, 2)
    assert est.selection_rates == (1.0, 1.0, 0.5, 1.0)
    assert est.selection_rate == 0.875


@pytest.mark.parametrize(
    "settings, bins, signs",
    [
        ([[0, 7]], [[0, 0]], [[1, 1]]),  # setting outside {0, 1}
        (np.array([[0, 257]]), [[0, 0]], [[1, 1]]),  # would wrap to 1 in int8
        ([[0, 1]], [[0, 0]], [[1, 0]]),  # sign 0
        ([[0, 1]], [[0, 0]], [[5, 1]]),  # sign 5
        ([[0, 1]], [[0, -1]], [[1, 1]]),  # bin code -1 would alias "L"
    ],
)
def test_event_table_rejects_out_of_range_values(settings, bins, signs):
    with pytest.raises(ValueError):
        EventTable(settings, bins, signs, [True], ("S", "L"))


def _write_events(path, rows):
    lines = [",".join(CSV_COLUMNS), *(",".join(map(str, row)) for row in rows)]
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        # (1, 0) twice and (1, 1) never: the row count still equals 2 x 2
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0), (1, 0, 0, "S", 1, 0)],
            "duplicate event for trial 1, party 0",
        ),
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0)],
            "missing event for trial 1, party 1",
        ),
        # trial -1 would wrap onto the last trial
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0), (-1, 1, 0, "S", 1, 0)],
            "negative index in trial -1, party 1",
        ),
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 0)],
            "inconsistent selected flags in trial 0",
        ),
        ([(0, 0, 2, "S", 1, 1)], "settings must be 0 or 1"),
        ([(0, 0, 0, "S", 0, 1)], "signs must be"),
        ([(0, 0, 0, "S", 1, 2)], "selected flags must be 0 or 1"),
    ],
)
def test_csv_rejects_malformed_grid(tmp_path, rows, message):
    path = tmp_path / "events.csv"
    _write_events(path, rows)
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


def test_csv_rejects_unknown_bin_label(tmp_path):
    path = tmp_path / "events.csv"
    _write_events(path, [(0, 0, 0, "X", 1, 1)])
    with pytest.raises(ValueError, match="'X'"):
        EventTable.read_csv(path, bin_labels=("S", "L"))


def test_csv_unknown_bin_label_is_the_first_in_the_file(tmp_path):
    path = tmp_path / "events.csv"
    _write_events(path, [(0, 0, 0, "S", 1, 1), (0, 1, 0, "Y", 1, 1), (0, 2, 0, "X", 1, 1)])
    with pytest.raises(ValueError, match="^bin label 'Y' not in"):
        EventTable.read_csv(path, bin_labels=("S", "L"))


def test_csv_write_replaces_an_existing_file(tmp_path):
    path = tmp_path / "events.csv"
    event_stream(saturating_model(), 50, seed=1).write_csv(path)
    table = _small_table()
    table.write_csv(path)
    _assert_same_events(EventTable.read_csv(path), table)
    # a symlink is written through, not replaced
    link = tmp_path / "link.csv"
    link.symlink_to(path)
    event_stream(saturating_model(), 50, seed=2).write_csv(link)
    table.write_csv(link)
    assert link.is_symlink()
    _assert_same_events(EventTable.read_csv(path), table)


@pytest.mark.parametrize(
    "row, line",
    [
        ("0,0,0,S", 3),  # too few fields
        ("0,0,0,S,1,1,extra", 3),  # too many fields
    ],
)
def test_csv_rejects_wrong_field_count(tmp_path, row, line):
    path = tmp_path / "events.csv"
    path.write_text(f"{','.join(CSV_COLUMNS)}\n0,0,0,S,1,1\n{row}\n")
    with pytest.raises(ValueError, match=f"line {line}"):
        EventTable.read_csv(path)


@st.composite
def event_tables(draw):
    trials = draw(st.integers(min_value=1, max_value=6))
    parties = draw(st.integers(min_value=1, max_value=4))
    # labels may need CSV quoting: delimiters, quotes, line breaks, empty
    labels = draw(
        st.lists(st.text(alphabet="SLt01 ,\"\n\r", max_size=3), min_size=1, max_size=4, unique=True)
    )
    grid = st.lists(st.integers(0, 2**30), min_size=trials * parties, max_size=trials * parties)
    cells = [np.array(draw(grid)).reshape(trials, parties) for _ in range(3)]
    flags = draw(st.lists(st.booleans(), min_size=trials, max_size=trials))
    return EventTable(cells[0] % 2, cells[1] % len(labels), 1 - 2 * (cells[2] % 2), flags, labels)


@given(table=event_tables())
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_csv_round_trip_property(tmp_path, table):
    path = tmp_path / "events.csv"
    table.write_csv(path)
    again = EventTable.read_csv(path, bin_labels=table.bin_labels)
    for column in ("settings", "bins", "signs", "selected"):
        assert (getattr(again, column) == getattr(table, column)).all()
    assert again.bin_labels == table.bin_labels
    _assert_same_events(EventTable.read_csv(path), table)
    reference = tmp_path / "reference.csv"
    _reference_write_csv(table, reference)
    assert path.read_bytes() == reference.read_bytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: event_stream(saturating_model(), 100_000, seed=7),
        lambda: source_event_stream(100_000, seed=7),
    ],
    ids=["lhv", "source"],
)
def test_csv_writer_matches_reference_on_seeded_streams(tmp_path, make):
    table = make()
    table.write_csv(tmp_path / "events.csv")
    _reference_write_csv(table, tmp_path / "reference.csv")
    digests = [
        hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("events.csv", "reference.csv")
    ]
    assert digests[0] == digests[1]


def test_csv_error_names_physical_line(tmp_path):
    # header, row, blank line, a row whose quoted label spans two lines,
    # then a short row on line 6 (csv.reader's line_num)
    path = tmp_path / "events.csv"
    body = '0,0,0,S,1,1\r\n\r\n0,1,0,"a\r\nb",1,1\r\n0,2,0,S\r\n'
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode())
    with pytest.raises(ValueError, match="^line 6: 4 fields, expected 6$"):
        EventTable.read_csv(path)


@pytest.mark.parametrize("field", ["1.0", "x", "", "1_0", str(2**63)])
@pytest.mark.parametrize("column", [0, 4])
def test_csv_rejects_non_integer_field_with_line(tmp_path, field, column):
    row = ["1", "0", "0", "S", "1", "1"]
    row[column] = field
    path = tmp_path / "events.csv"
    path.write_text(f"{','.join(CSV_COLUMNS)}\n0,0,0,S,1,1\n\n{','.join(row)}\n")
    message = f"^line 4: {CSV_COLUMNS[column]} {field!r} is not a 64-bit integer$"
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


@pytest.mark.parametrize("body", ["", "\r\n", "\n\n"])
def test_csv_header_only_has_no_rows(tmp_path, body):
    path = tmp_path / "events.csv"
    path.write_text(",".join(CSV_COLUMNS) + "\n" + body)
    with pytest.raises(ValueError, match="^event CSV contains no rows$"):
        EventTable.read_csv(path)
