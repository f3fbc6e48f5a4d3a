import csv
import hashlib
import io
import re
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from etbell import events, source
from etbell.events import (
    CSV_COLUMNS,
    EventTable,
    all_equal,
    mermin_coefficients,
    mermin_estimate,
    mermin_mu,
)
from etbell.lhv import event_stream, saturating_model, scaled_model
from etbell.source import locality_audit, source_event_stream
from etbell.states import ghz_state, sample_measurement_events

from conftest import block_edges, traced_peak


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


def _random_table(trials, parties, labels=("S", "L"), seed=0):
    """A table with columns drawn from ``seed``, its bin codes over all of ``labels``."""
    rng = np.random.default_rng(seed)
    cells = rng.integers(0, 2, (2, trials, parties))
    bins = rng.integers(0, len(labels), (trials, parties))
    return EventTable(cells[0], bins, 1 - 2 * cells[1], rng.integers(0, 2, trials) == 1, labels)


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


@pytest.mark.parametrize("n_labels, code", [(128, 127), (129, 128), (200, 150), (2**15, 2**15 - 1)])
def test_event_table_keeps_bin_codes_past_int8(n_labels, code):
    labels = tuple(f"b{k}" for k in range(n_labels))
    table = EventTable([[0]], [[code]], [[1]], [True], labels)
    assert table.bins[0, 0] == code
    assert table.bin_labels[table.bins[0, 0]] == f"b{code}"


def test_event_table_rejects_more_labels_than_codes():
    with pytest.raises(ValueError, match="bin labels"):
        EventTable([[0]], [[0]], [[1]], [True], tuple(str(k) for k in range(2**15 + 1)))


def test_event_table_copies_the_callers_arrays():
    # only the package's own constructors hand their fresh arrays over
    grid = np.zeros((2, 3), np.int8)
    arrays = grid, grid.copy(), grid + 1, np.ones(2, bool)
    table = EventTable(*arrays)
    for given, kept in zip(arrays, (table.settings, table.bins, table.signs, table.selected)):
        assert given.flags.writeable and not kept.flags.writeable
        assert not np.shares_memory(given, kept)


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


@pytest.mark.parametrize("shape", [(0, 3), (2, 0), (0, 0)])
def test_csv_writer_refuses_an_empty_table(tmp_path, shape):
    # the reader refuses a header-only file, and a (2, 0) table would lose its trial count
    path = tmp_path / "events.csv"
    path.write_text("kept")
    table = EventTable(np.zeros(shape), np.zeros(shape), np.ones(shape), np.ones(shape[0], bool))
    message = re.escape(f"cannot write an empty event table of shape {shape}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        table.write_csv(path)
    assert path.read_text() == "kept"


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


def test_mermin_estimate_memory():
    # the three-party table holds 10 bytes per trial (1.0 MB); only one
    # block's codes and sign products come on top (0.18 MB), no int64 code
    # per trial (1.4 MB more before) and no wide copy of the settings
    table = event_stream(saturating_model(), 100_000, seed=3)
    peak, _ = traced_peak(mermin_estimate, table)
    assert peak <= 250_000


def _reference_estimate(table):
    """One setting mask and one mean per Mermin combination: the loop the
    bincount estimate must match exactly."""
    prod = table.signs.prod(axis=1)
    terms, combo_counts, selected_counts, rates = [], [], [], []
    for combo in mermin_coefficients(table.n_parties):
        mask = (table.settings == np.array(combo)).all(axis=1)
        sel = mask & table.selected
        combo_counts.append(int(mask.sum()))
        selected_counts.append(int(sel.sum()))
        terms.append(float(prod[sel].mean()) if sel.any() else None)
        rates.append(float(sel.sum() / mask.sum()) if mask.any() else None)
    return terms, combo_counts, selected_counts, rates


@st.composite
def mermin_tables(draw):
    parties = draw(st.integers(min_value=2, max_value=5))
    trials = draw(st.integers(min_value=0, max_value=40))
    bits = st.lists(st.integers(0, 1), min_size=trials * parties, max_size=trials * parties)
    settings, signs = (np.array(draw(bits), dtype=int).reshape(trials, parties) for _ in range(2))
    flags = draw(st.lists(st.booleans(), min_size=trials, max_size=trials))
    return EventTable(settings, np.zeros_like(settings), 1 - 2 * signs, flags)


# every combination has trials, and (0, 1, 0) has none selected
@example(table=EventTable([[0, 0, 1], [0, 1, 0], [1, 0, 0], [1, 1, 1]] * 2, [[0] * 3] * 8,
                          [[1, -1, 1]] * 8, [True, False, True, True] * 2))
@given(table=mermin_tables())
@settings(max_examples=150, deadline=None)
def test_mermin_estimate_matches_per_combination_reference(table):
    terms, combo_counts, selected_counts, rates = _reference_estimate(table)
    est = mermin_estimate(table)
    assert est.terms == tuple(terms)
    assert est.combo_counts == tuple(combo_counts)
    assert est.selected_counts == tuple(selected_counts)
    assert est.selection_rates == tuple(rates)
    assert est.mu == mermin_mu(mermin_coefficients(table.n_parties), terms)
    if None in rates:
        assert est.selection_rate is None
    else:
        assert est.selection_rate == sum(rates) / len(rates)
    assert all(type(k) is int for k in est.combo_counts + est.selected_counts)


def _choice_stream(ensemble, trials, seed):
    """The whole-table generator the block-wise one replaced: every pick from
    one ``Generator.choice`` call, gathered from the int8 tables at once.
    Returns settings, bins, signs and selection flags."""
    rng = np.random.default_rng(seed)
    n = ensemble.n_parties
    settings = rng.integers(0, 2, size=(trials, n), dtype=np.int8)
    weights = np.array([float(w) for w in ensemble.weights])
    picks = rng.choice(len(weights), size=trials, p=weights / weights.sum())
    bins, signs = (
        np.array(table, dtype=np.int8)[picks[:, None], np.arange(n), settings]
        for table in (ensemble.bin_table, ensemble.sign_table)
    )
    return settings, bins, signs, all_equal(bins)


def _reference_joint(table):
    """The whole-table (setting combination, selected) counts of the audit,
    party p's setting as bit p of the combination."""
    n = table.n_parties
    code = np.ravel_multi_index(table.settings.T[::-1], (2,) * n)
    return np.bincount(code * 2 + table.selected, minlength=2 ** (n + 1)).reshape(-1, 2)


def _assert_statistics_match_references(table):
    terms, combo_counts, selected_counts, rates = _reference_estimate(table)
    est = mermin_estimate(table)
    assert (est.terms, est.combo_counts, est.selected_counts) == (
        tuple(terms), tuple(combo_counts), tuple(selected_counts)
    )
    assert est.selection_rates == tuple(rates)
    n, joint = table.n_parties, _reference_joint(table)
    audit = locality_audit(table)
    cube = joint.reshape((2,) * n + (2,))
    for p, party in enumerate(audit.per_party):
        counts = cube.sum(axis=tuple(a for a in range(n) if a != n - 1 - p))
        assert party.counts == tuple(map(tuple, counts.tolist()))
    assert (audit.joint_chi2, audit.joint_p_value) == source._chi2(joint)


@pytest.mark.parametrize("seed", [0, 1, 101])
def test_block_wise_stream_and_statistics_match_whole_table_references(trial_block, seed):
    # the picks' doubles go a block at a time, the int8 settings in one draw;
    # the statistics add up per-block counts: neither may move a byte
    for trials in block_edges(trial_block):
        for model in (saturating_model(), scaled_model(1.5)):
            table = event_stream(model, trials, seed=seed)
            columns = (table.settings, table.bins, table.signs, table.selected)
            for got, want in zip(columns, _choice_stream(model, trials, seed)):
                assert got.tobytes() == want.tobytes()
            _assert_statistics_match_references(table)
        for n in range(2, 6):
            _assert_statistics_match_references(_random_table(trials, n, seed=seed))


def _table_bytes(table):
    return sum(a.nbytes for a in (table.settings, table.bins, table.signs, table.selected))


@pytest.mark.parametrize(
    "name", ["event_stream", "sample_measurement_events", "mermin_estimate", "locality_audit"]
)
def test_block_wise_memory_does_not_grow_with_the_table(name):
    # past the table (and the sampler's whole-table int8 common bins, one
    # byte per trial), one block's arrays: no double, pick, gather index or
    # combination code per trial (1.4 to 5.8 MB more at 200k trials before)
    excess = []
    for trials in (100, 20_000, 200_000):
        table = event_stream(saturating_model(), trials, seed=3)
        fn, *args = {
            "event_stream": (event_stream, saturating_model(), trials, 3),
            "sample_measurement_events": (sample_measurement_events, ghz_state(3), None, trials, 3),
            "mermin_estimate": (mermin_estimate, table),
            "locality_audit": (locality_audit, table),
        }[name]
        peak, result = traced_peak(fn, *args)
        own = _table_bytes(result) if isinstance(result, EventTable) else 0
        excess.append(peak - own - (trials if name == "sample_measurement_events" else 0))
    assert excess[2] <= excess[1] + 50_000


def test_statistics_refuse_more_parties_than_the_correlators_take(monkeypatch):
    # 2^n settings by 2^n outcomes against the quantum limit of 2^24: 12
    # parties pass, and a valid 40-party table is refused before any term
    # list or count array is built
    def forbidden(*args, **kwargs):
        raise AssertionError("work started past the party-count guard")

    twelve = EventTable(np.zeros((1, 12)), np.zeros((1, 12)), np.ones((1, 12)), [True])
    assert mermin_estimate(twelve).combo_counts.count(1) == 1
    assert locality_audit(twelve).per_party[11].counts == ((0, 1), (0, 0))
    monkeypatch.setattr(events, "mermin_coefficients", forbidden)
    monkeypatch.setattr(np, "bincount", forbidden)
    for n in (13, 40):
        table = EventTable(np.zeros((1, n)), np.zeros((1, n)), np.ones((1, n)), [True])
        for statistic in (mermin_estimate, locality_audit):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"^{n} parties: 2\\^{n} settings x 2\\^{n} outcomes exceed"):
                statistic(table)
            assert time.perf_counter() - start < 1.0


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
    path.write_text("\n".join(lines) + "\n", newline="\r\n")


@pytest.mark.parametrize(
    "rows, message",
    [
        # (1, 0) twice and (1, 1) never: the row count still equals 2 x 2
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0), (1, 0, 0, "S", 1, 0)],
            "^line 5: expected trial 1, party 1, found trial 1, party 0$",
        ),
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0)],
            "^line 5: expected trial 1, party 1, found the end of the file$",
        ),
        # trial -1 would wrap onto the last trial
        (
            [(0, 0, 0, "S", 1, 1), (0, 1, 0, "S", 1, 1), (1, 0, 0, "S", 1, 0), (-1, 1, 0, "S", 1, 0)],
            "^line 5: expected trial 1, party 1, found trial -1, party 1$",
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


@pytest.mark.parametrize(
    "row, line",
    [
        ("0,0,0,S", 3),  # too few fields
        ("0,0,0,S,1,1,extra", 3),  # too many fields
    ],
)
def test_csv_rejects_wrong_field_count(tmp_path, row, line):
    path = tmp_path / "events.csv"
    path.write_text(f"{','.join(CSV_COLUMNS)}\n0,0,0,S,1,1\n{row}\n", newline="\r\n")
    with pytest.raises(ValueError, match=f"line {line}"):
        EventTable.read_csv(path)


@st.composite
def event_tables(draw):
    # up to 12, 120 or 1,200 trials, so that trial numbers cross 10, 100 and 1,000
    trials = draw(st.sampled_from([12, 120, 1_200]).flatmap(lambda most: st.integers(1, most)))
    parties = draw(st.integers(min_value=1, max_value=4))
    # every kind of label the codec takes: empty, NUL, multibyte, exactly 7 UTF-8 bytes
    label = st.one_of(
        st.text(alphabet="SLt01 #\x00\u00e9\u03a9", max_size=3),
        st.sampled_from(["abcdefg", "\u03a9\u03a9\u03a9S", "t0\x00\u00e9\u00e9"]),
    )
    labels = draw(st.lists(label, min_size=1, max_size=4, unique=True))
    return _random_table(trials, parties, labels, seed=draw(st.integers(0, 2**32 - 1)))


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


def _assert_writes_as_reference(tmp_path, table):
    table.write_csv(tmp_path / "events.csv")
    _reference_write_csv(table, tmp_path / "reference.csv")
    assert (tmp_path / "events.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


@pytest.mark.parametrize("parties", [1, 3])
@pytest.mark.parametrize(
    "trials", [1, 9, 10, 11, 999, 1_000, 1_001, 9_999, 10_000, 10_001, 100_001]
)
def test_csv_writer_matches_reference_across_digits_and_blocks(tmp_path, trials, parties):
    # trial numbers of each width, and tables that end on either side of a
    # block edge: a block is 10,000 trials of one party or 1,000 of three
    _assert_writes_as_reference(tmp_path, _random_table(trials, parties, seed=trials))


@pytest.mark.parametrize("parties", range(1, 9))
def test_csv_writer_matches_reference_for_each_party_count(tmp_path, parties):
    _assert_writes_as_reference(tmp_path, _random_table(2_001, parties, seed=parties))


def test_csv_writer_matches_reference_on_labels_to_quote_and_encode(tmp_path):
    # labels csv.writer would quote are refused, so the writer never quotes;
    # the others are written as they stand, in UTF-8
    for label in (",", '"', "\r", "\n", 'a"b,c\r\n'):
        with pytest.raises(ValueError, match=re.escape(f"bin label {label!r} holds")):
            EventTable([[0]], [[0]], [[1]], [True], (label,))
    labels = ("", "\x00", "S\x00", "é", "Ω", " S", "#x", "abcdefg", "ΩΩΩS", "S")
    _assert_writes_as_reference(tmp_path, _random_table(2_001, 3, labels, seed=1))


@pytest.mark.parametrize("n_labels", [129, 2**15])
def test_csv_writer_matches_reference_with_wide_bin_codes(tmp_path, n_labels):
    # int16 bin codes; the suffix codes of party 1 run past 2**16 at 2**15 labels
    table = _random_table(1_001, 2, tuple(f"b{k}" for k in range(n_labels)), seed=n_labels)
    assert table.bins.dtype == np.int16
    _assert_writes_as_reference(tmp_path, table)


def test_csv_write_memory_does_not_grow_with_the_table(tmp_path):
    peaks = []
    for trials in (20_000, 200_000):
        table = source_event_stream(trials, seed=7)
        peaks.append(traced_peak(table.write_csv, tmp_path / "events.csv")[0])
    assert peaks[1] <= peaks[0] + 500_000


def test_csv_error_names_physical_line(tmp_path):
    # header, four rows, then a short row on line 6
    path = tmp_path / "events.csv"
    body = "0,0,0,S,1,1\r\n0,1,0,é,1,1\r\n0,2,0,,1,1\r\n0,3,0,S,1,1\r\n0,4,0,S\r\n"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode())
    with pytest.raises(ValueError, match="^line 6: 4 fields, expected 6$"):
        EventTable.read_csv(path)


@pytest.mark.parametrize(
    "field",
    # padded, '+'-signed, quoted, CR-ended, 20-digit and out-of-range integers too
    ["1.0", "x", "", "1_0", str(2**63), " 1", "1 ", "+1", '"1"', "1\r", "1" * 20,
     str(-(2**63) - 1)],
)
@pytest.mark.parametrize("column", [0, 4])
def test_csv_rejects_non_integer_field_with_line(tmp_path, field, column):
    row = ["1", "0", "0", "S", "1", "1"]
    row[column] = field
    path = tmp_path / "events.csv"
    text = f"{','.join(CSV_COLUMNS)}\r\n0,0,0,S,1,1\r\n0,1,0,S,1,1\r\n{','.join(row)}\r\n"
    path.write_bytes(text.encode())
    message = f"^{re.escape(f'line 4: {CSV_COLUMNS[column]} {field!r}')} is not a 64-bit integer$"
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


@pytest.mark.parametrize(
    "body, labels, table",
    [
        ("0,0,0,S,1,1\r\n0,1,1,L,-1,1\r\n", ("S", "L"), ([[0, 1]], [[0, 1]], [[1, -1]], [True])),
        # leading zeros are digits too
        ("00,0,0,S,01,00\r\n", ("S",), ([[0]], [[0]], [[1]], [False])),
        # labels are taken as they stand, spaces, NUL and '#' included
        (
            "0,0,0, S,1,1\r\n0,1,0,\u00e9,1,1\r\n1,0,0,S\x00,1,0\r\n1,1,0,#x,1,0\r\n"
            "2,0,0,,1,1\r\n2,1,0, S,1,1\r\n",
            (" S", "\u00e9", "S\x00", "#x", ""),
            ([[0, 0]] * 3, [[0, 1], [2, 3], [4, 0]], [[1, 1]] * 3, [True, False, True]),
        ),
    ],
    ids=["crlf", "leading-zeros", "labels-as-they-stand"],
)
def test_csv_reader_accepts(tmp_path, body, labels, table):
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode())
    got = EventTable.read_csv(path)
    assert got.bin_labels == labels
    for name, want in zip(("settings", "bins", "signs", "selected"), table):
        column = getattr(got, name)
        assert column.tolist() == want
        assert column.dtype == (bool if name == "selected" else np.int8)


@pytest.mark.parametrize(
    "body, message",
    [
        # LF or bare CR line ends, and a last record without its CRLF
        ("0,0,0,S,1,1\n0,1,1,L,-1,1\n", "line 2: record does not end in \\r\\n"),
        ("0,0,0,S,1,1\r\n0,1,1,L,-1,1\n", "line 3: record does not end in \\r\\n"),
        ("0,0,0,S,1,1\r0,1,1,L,-1,1\r", "line 2: record does not end in \\r\\n"),
        ("0,0,0,S,1,1\r\n0,1,1,L,-1,1", "line 3: record does not end in \\r\\n"),
        # blank lines
        ("0,0,0,S,1,1\r\n\r\n0,1,1,L,-1,1\r\n", "line 3: 1 fields, expected 6"),
        # quoted labels, and labels holding a quote, a CR or over 7 bytes
        ('0,0,1,"S,\r\nx",-1,1\r\n', "line 2: 5 fields, expected 6"),
        ('0,0,0,S,1,1\r\n0,1,0,"S",1,1\r\n', "line 3: bin label '\"S\"' holds"),
        ('0,0,0,a"b,1,1\r\n', "line 2: bin label 'a\"b' holds"),
        ("0,0,0,S,1,1\r\n0,1,0,a\rb,1,1\r\n", "line 3: bin label 'a\\rb' holds"),
        ("0,0,0,abcdefgh,1,1\r\n", "line 2: bin label 'abcdefgh' is longer than 7 UTF-8 bytes"),
        ("0,0,0,éééé,1,1\r\n", "line 2: bin label 'éééé' is longer than 7 UTF-8 bytes"),
        # a label that is no UTF-8 (a lone 0xff byte)
        ("0,0,0,S\udcff,1,1\r\n", "line 2: 'utf-8' codec can't decode byte 0xff"),
        # the first bad line is named, and in it the bin label before the integers
        ("0,0,0,S,1,1\r\n0,1,0,a\"b,1,1\r\n0,2,x,S,1,1\r\n", "line 3: bin label"),
        ("0,0,0,S,1,1\r\n0,1,x,a\"b,1,1\r\n", "line 3: bin label"),
        ("0,0,0,S,1,1\r\n0,1,x,S,1,1\r\n0,2,0,a\"b,1,1\r\n", "line 3: setting 'x'"),
        ("0,0,0,S,1,1\r\n0,1,0,S,1\r\n0,2,0,a\"b,1,1\r\n", "line 3: 5 fields"),
        ("0,0,0,S,1,1\r\n0,1,0,a\"b,1,1\r\n0,2,0,S,1\r\n", "line 3: bin label"),
    ],
    ids=[
        "lf-ends", "lf-last", "bare-cr-ends", "no-final-crlf", "blank-line",
        "quoted-label-with-crlf", "quoted-label", "quote-in-label", "cr-in-label", "8-byte-label",
        "8-byte-multibyte-label", "no-utf8-label", "label-line-first", "label-before-integer",
        "integer-line-first", "field-count-line-first", "label-line-before-field-count",
    ],
)
def test_csv_reader_rejects(tmp_path, body, message):
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode(errors="surrogateescape"))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        EventTable.read_csv(path)


@given(raw=st.lists(st.text('"a,\r\n', max_size=6), min_size=1, max_size=3))
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@example(raw=['"a"""', 'a"', '"a,"a'])
def test_csv_reader_refuses_quoted_or_split_labels(tmp_path, raw):
    # each text stands in the bin field of one row as it is; a text that is
    # no label the writer writes (one with a quote, a comma, a CR or an LF)
    # is refused on the line its row starts
    rows = [f"0,{p},0,{text},1,1\r\n" for p, text in enumerate(raw)]
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + "".join(rows)).encode())
    bad = [k for k, text in enumerate(raw) if set(text) & set('",\r\n')]
    if bad:
        line = 2 + "".join(rows[: bad[0]]).count("\n")
        with pytest.raises(ValueError, match=f"^line {line}: "):
            EventTable.read_csv(path)
    else:
        got = EventTable.read_csv(path)
        assert [got.bin_labels[b] for b in got.bins[0]] == raw


def test_csv_reader_rejects_blank_filled_line(tmp_path):
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n0,0,0,S,1,1\r\n \r\n").encode())
    with pytest.raises(ValueError, match="^line 3: 1 fields, expected 6$"):
        EventTable.read_csv(path)


@pytest.mark.parametrize("body", ["", "\r\n", "\n\n"])
def test_csv_header_only_has_no_rows(tmp_path, body):
    # a blank line after the header is no row either, and is refused
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode())
    message = "line 2: 1 fields, expected 6" if body else "event CSV contains no rows"
    with pytest.raises(ValueError, match=f"^{message}$"):
        EventTable.read_csv(path)


@pytest.mark.parametrize(
    "labels, message",
    [
        (("S", "S"), "^duplicate bin label 'S'$"),
        (("S", 1), "^bin label 1 is not a string$"),
        # a lone surrogate has no UTF-8 form, so the writer could not write it
        (("S", "\ud800"), "^bin label '\\\\ud800' is not valid UTF-8 text$"),
        (("a\udfffb",), "^bin label 'a\\\\udfffb' is not valid UTF-8 text$"),
    ],
)
def test_event_table_rejects_bad_bin_labels(labels, message):
    with pytest.raises(ValueError, match=message):
        EventTable([[0]], [[0]], [[1]], [True], labels)


def test_csv_rejects_duplicate_given_bin_labels(tmp_path):
    path = tmp_path / "events.csv"
    _write_events(path, [(0, 0, 0, "S", 1, 1)])
    with pytest.raises(ValueError, match="^duplicate bin label 'S'$"):
        EventTable.read_csv(path, bin_labels=("S", "S", "L"))


@pytest.fixture(params=[2, 3])
def small_chunks(request, monkeypatch):
    """Tokenize the CSV body in blocks of 2 or 3 bytes, so that block ends
    fall inside labels, between CR and LF and inside digit runs."""
    monkeypatch.setattr(events, "CSV_READ_BYTES", request.param)


def _csv_text(rows):
    """``rows`` under the header as ``csv.writer`` writes them."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(CSV_COLUMNS)
    writer.writerows(rows)
    return buf.getvalue()


def _grid_rows(*changes):
    """Rows of a valid 3-trial, 2-party file with each ``(row, column, value)``
    of ``changes`` applied."""
    rows = [[t, p, 0, "S", 1, 1] for t in range(3) for p in range(2)]
    for k, column, value in changes:
        rows[k][CSV_COLUMNS.index(column)] = value
    return rows


def test_csv_round_trip_across_chunks(tmp_path, small_chunks):
    # multibyte and 7-byte labels on both sides of every chunk boundary
    labels = ("S", "\u00e9\x00", "abcdefg")
    table = EventTable(
        [[0, 1], [1, 1], [0, 0]], [[1, 2], [1, 0], [2, 1]], [[1, -1], [-1, -1], [1, 1]],
        [True, False, True], labels,
    )
    path = tmp_path / "events.csv"
    table.write_csv(path)
    again = EventTable.read_csv(path, bin_labels=labels)
    for column in ("settings", "bins", "signs", "selected"):
        assert (getattr(again, column) == getattr(table, column)).all()
    _assert_same_events(EventTable.read_csv(path), table)


@given(table=event_tables())
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_csv_round_trip_property_in_two_row_chunks(tmp_path, monkeypatch, table):
    monkeypatch.setattr(events, "CSV_READ_BYTES", 2)
    path = tmp_path / "events.csv"
    table.write_csv(path)
    again = EventTable.read_csv(path, bin_labels=table.bin_labels)
    for column in ("settings", "bins", "signs", "selected"):
        assert (getattr(again, column) == getattr(table, column)).all()


@pytest.mark.parametrize(
    "bad, message",
    [
        ("2,0,0,S", "^line 8: 4 fields, expected 6$"),
        ("2,0,x,S,1,1", "^line 8: setting 'x' is not a 64-bit integer$"),
        ("2,0,0,S,1,1.5", "^line 8: selected '1.5' is not a 64-bit integer$"),
        ("2,0,0,S,1,1\n", "^line 8: record does not end in \\\\r\\\\n$"),
        ("2,0,0,abcdefg\u00e9,1,1", "^line 8: bin label 'abcdefg\u00e9' is longer than 7"),
    ],
)
def test_csv_error_in_later_chunk_names_physical_line(tmp_path, small_chunks, bad, message):
    body = "0,0,0,S,1,1\r\n0,1,0,abcdefg,1,1\r\n0,2,0,\u00e9,1,1\r\n"
    body += f"1,0,0,S,1,1\r\n1,1,0,S,1,1\r\n1,2,0,S,1,1\r\n{bad}\r\n"
    path = tmp_path / "events.csv"
    path.write_bytes((",".join(CSV_COLUMNS) + "\r\n" + body).encode())
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


@pytest.mark.parametrize(
    "changes, message",
    [
        # each bad value would wrap to a valid one in int8
        ([(5, "setting", 257)], "^settings must be 0 or 1$"),
        ([(5, "setting", -255)], "^settings must be 0 or 1$"),
        ([(5, "sign", 2**32 + 1)], "^signs must be \\+1 or -1$"),
        ([(4, "sign", -(2**40) - 255)], "^signs must be \\+1 or -1$"),
        ([(5, "selected", 256)], "^selected flags must be 0 or 1$"),
        # with two bad values: selected flags first, then settings, then signs
        ([(4, "setting", 256), (5, "selected", 257)], "^selected flags must be 0 or 1$"),
        ([(4, "sign", 2**8 + 1), (5, "setting", 2**9)], "^settings must be 0 or 1$"),
    ],
)
def test_csv_out_of_range_value_in_later_chunk(tmp_path, small_chunks, changes, message):
    path = tmp_path / "events.csv"
    path.write_text(_csv_text(_grid_rows(*changes)), newline="")
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


def _records(*cells):
    """Rows of the ``(trial, party)`` ``cells`` in the order given."""
    return [[t, p, 0, "S", 1, 1] for t, p in cells]


# cells of the valid 3-trial, 2-party file of _grid_rows, record by record
GRID = [(t, p) for t in range(3) for p in range(2)]

OUT_OF_ORDER = {
    "duplicate": (_grid_rows((5, "party", 0)), 7, "trial 2, party 1", "trial 2, party 0"),
    "skipped-trial": (_records(*GRID[:2], *GRID[4:]), 4, "trial 1, party 0", "trial 2, party 0"),
    "short-middle-trial": (_records(*GRID[:3], *GRID[4:]), 5, "trial 1, party 1", "trial 2, party 0"),
    "truncated-last-trial": (_grid_rows()[:5], 7, "trial 2, party 1", "the end of the file"),
    "one-party-of-a-new-trial": (
        _grid_rows() + _records((3, 1)), 8, "trial 3, party 0", "trial 3, party 1",
    ),
    "swapped-adjacent": (
        _records(*GRID[:2], GRID[3], GRID[2], *GRID[4:]), 4, "trial 1, party 0", "trial 1, party 1",
    ),
    "swapped-first": (_records(GRID[1], GRID[0], *GRID[2:]), 2, "trial 0, party 0", "trial 0, party 1"),
    "first-is-trial-1": (_records(*GRID[2:]), 2, "trial 0, party 0", "trial 1, party 0"),
    # indices past int8/int32 and below zero in a later chunk
    "negative-trial": (_grid_rows((4, "trial", -1)), 6, "trial 2, party 0", "trial -1, party 0"),
    "negative-party": (_grid_rows((5, "party", -1)), 7, "trial 2, party 1", "trial 2, party -1"),
    "trial-minus-2**40": (
        _grid_rows((4, "trial", -(2**40))), 6, "trial 2, party 0", "trial -1099511627776, party 0",
    ),
    # the lowest int64, decoded exactly
    "trial-minus-2**63": (
        _grid_rows((4, "trial", -(2**63))), 6, "trial 2, party 0",
        "trial -9223372036854775808, party 0",
    ),
    "trial-2**40": (_grid_rows((5, "trial", 2**40)), 7, "trial 2, party 1", "trial 1099511627776, party 1"),
    "trial-2**40-twice": (
        _grid_rows((4, "trial", 2**40), (5, "trial", 2**40), (5, "party", 0)), 6, "trial 2, party 0",
        "trial 1099511627776, party 0",
    ),
    "party-300": (_grid_rows((5, "party", 300)), 7, "trial 2, party 1", "trial 2, party 300"),
    # trial * parties would wrap in int64 (to 2**63, and to 0)
    "trial-2**62-of-2": (
        _records(*GRID[:2], (2**62, 0)), 4, "trial 1, party 0", "trial 4611686018427387904, party 0",
    ),
    "trial-2**62-of-4": (
        _records((0, 0), (0, 1), (0, 2), (0, 3), (2**62, 0)), 6, "trial 1, party 0",
        "trial 4611686018427387904, party 0",
    ),
    "one-party-duplicate": (_records((0, 0), (1, 0), (1, 0)), 4, "trial 2, party 0", "trial 1, party 0"),
    "one-trial-duplicate": (_records((0, 0), (0, 1), (0, 1)), 4, "trial 0, party 2", "trial 0, party 1"),
}


@pytest.mark.parametrize("rows, line, expected, found", OUT_OF_ORDER.values(), ids=OUT_OF_ORDER)
def test_csv_refuses_the_first_record_out_of_order(tmp_path, small_chunks, rows, line, expected, found):
    path = tmp_path / "events.csv"
    path.write_text(_csv_text(rows), newline="")
    message = f"^line {line}: expected {expected}, found {found}$"
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


@pytest.mark.parametrize(
    "shape", [(3, 1), (1, 3), (1, 1)], ids=["one-party", "one-trial", "one-cell"]
)
def test_csv_reads_one_party_and_one_trial_files(tmp_path, small_chunks, shape):
    table = _random_table(*shape, seed=3)
    path = tmp_path / "events.csv"
    table.write_csv(path)
    again = EventTable.read_csv(path, bin_labels=table.bin_labels)
    for column in ("settings", "bins", "signs", "selected"):
        assert (getattr(again, column) == getattr(table, column)).all()


@given(table=event_tables(), data=st.data())
@settings(
    max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_csv_swapping_two_records_is_refused_at_the_first(tmp_path, table, data):
    assume(len(table) >= 2)
    records = st.integers(0, len(table) - 1)
    i, j = sorted(data.draw(st.lists(records, min_size=2, max_size=2, unique=True)))
    path = tmp_path / "events.csv"
    table.write_csv(path)
    header, *records = path.read_bytes().split(b"\r\n")[:-1]
    records[i], records[j] = records[j], records[i]
    path.write_bytes(b"".join(r + b"\r\n" for r in (header, *records)))
    n = table.n_parties
    expected, found = (f"trial {k // n}, party {k % n}" for k in (i, j))
    message = f"^line {i + 2}: expected {expected}, found {found}$"
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


def test_csv_read_memory_per_row(tmp_path):
    # the grids need about 4 bytes per row; one block's columns and
    # tokenizer arrays come on top, a larger share of a three-party file
    path = tmp_path / "events.csv"
    for stream, rows, bound in [
        (source_event_stream(100_000, seed=7), 400_000, 9),
        (event_stream(saturating_model(), 100_000, seed=7), 300_000, 10),
    ]:
        stream.write_csv(path)
        peak, table = traced_peak(EventTable.read_csv, path)
        assert len(table) == rows
        assert peak <= bound * len(table)


@pytest.mark.parametrize("block", [2**16, 97])
def test_csv_reads_many_distinct_labels(tmp_path, monkeypatch, block):
    # thousands of short labels, and ones that differ only in a NUL or their
    # last of 7 bytes, coded in order of first appearance
    monkeypatch.setattr(events, "CSV_READ_BYTES", block)
    labels = [f"L{k}" for k in range(3000)] + [
        "", "\x00", "\x00\x00", "abcdef", "abcdef\x00", "abcdefg", "abcdefh", "\u03a9\u03a9\u03a9S",
    ]
    bins = np.random.default_rng(5).integers(0, len(labels), (4000, 2))
    table = EventTable(
        np.zeros_like(bins), bins, np.ones_like(bins), np.ones(4000, bool), tuple(labels)
    )
    path = tmp_path / "events.csv"
    table.write_csv(path)
    got = EventTable.read_csv(path)
    assert got.bin_labels == tuple(dict.fromkeys(labels[b] for b in bins.ravel()))
    assert got.bins.dtype == np.int16
    assert (np.array(got.bin_labels)[got.bins] == np.array(labels)[bins]).all()


def test_event_table_refuses_a_long_label(tmp_path):
    # a label is keyed by its first 7 bytes, so a 20,000-byte one is refused
    # before it is written or read
    long = "x" * 20_000
    with pytest.raises(ValueError, match=f"^bin label '{long}' is longer than 7 UTF-8 bytes$"):
        EventTable([[0, 1]], [[0, 1]], [[1, 1]], [True], ("S", long))
    _write_events(tmp_path / "events.csv", [(0, 0, 0, "S", 1, 1), (0, 1, 0, long, 1, 1)])
    with pytest.raises(ValueError, match=f"^line 3: bin label '{long}' is longer than 7"):
        EventTable.read_csv(tmp_path / "events.csv")


@given(
    label=st.one_of(
        st.tuples(st.text(max_size=3), st.sampled_from(',"\r\n'), st.text(max_size=3)).map(
            "".join
        ),
        st.text(min_size=8),
    )
)
@settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(label="\u00e9" * 4)
def test_labels_the_writer_cannot_write_are_refused(tmp_path, label):
    # a separator, quote or line break, or over 7 UTF-8 bytes
    message = f"^{re.escape(f'bin label {label!r}')} (holds|is longer than 7 UTF-8 bytes)"
    with pytest.raises(ValueError, match=message):
        EventTable([[0]], [[0]], [[1]], [True], ("S", label))
    path = tmp_path / "events.csv"
    _write_events(path, [(0, 0, 0, "S", 1, 1)])
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path, bin_labels=("S", label))


@pytest.mark.parametrize(
    "last, message",
    [
        # the whole file is tokenized before the record order is checked
        (("sign", "+1"), "^line 7: sign '\\+1' is not a 64-bit integer$"),
        # and the record order before any value
        (("setting", 257), "^line 4: expected trial 1, party 0, found trial 1, party 1$"),
    ],
    ids=["format-before-order", "order-before-value"],
)
def test_csv_fault_precedence(tmp_path, small_chunks, last, message):
    rows = _grid_rows((5, *last))
    rows[2], rows[3] = rows[3], rows[2]
    path = tmp_path / "events.csv"
    path.write_text(_csv_text(rows), newline="")
    with pytest.raises(ValueError, match=message):
        EventTable.read_csv(path)


@pytest.mark.parametrize("block", [2, 97])
def test_csv_swapping_two_records_is_refused_across_blocks(tmp_path, monkeypatch, block):
    # the leading trial-0 run, the swapped pair and a later trial-0 record
    # can each fall in a block of their own
    monkeypatch.setattr(events, "CSV_READ_BYTES", block)
    test_csv_swapping_two_records_is_refused_at_the_first(tmp_path)
