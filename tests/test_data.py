"""Dataset tests: parsing, windowing against brute-force enumeration, synth."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from prunecast.data import (SeriesTable, SplitSpec, load_csv, make_windows,
                            synth_dataset)
from prunecast.errors import ConfigError, ParseError


def write_csv(tmp_path, text, name="t.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadCsv:
    def test_three_rows_two_channels(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3,4\n5,6\n")
        table = load_csv(path)
        assert table.names == ["a", "b"]
        assert table.values.shape == (3, 2)
        np.testing.assert_array_equal(table.values[2], [5.0, 6.0])

    def test_timestamp_column_autodetected_and_ignored(self, tmp_path):
        path = write_csv(tmp_path, "date,x,y\n2021-01-01,1,2\n2021-01-02,3,4\n")
        table = load_csv(path)
        assert table.names == ["x", "y"]
        assert table.values.shape == (2, 2)

    def test_na_cell_errors_with_line_number(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\nNA,4\n")
        with pytest.raises(ParseError, match="line 3.*'NA'"):
            load_csv(path)

    def test_nan_value_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a\n1\nnan\n")
        with pytest.raises(ParseError, match="line 3"):
            load_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_csv(tmp_path, "a,b\n1,2\n3\n")
        with pytest.raises(ParseError, match="line 3.*ragged"):
            load_csv(path)

    @pytest.mark.parametrize("text, needle", [("a,b\n\n1,2\n3,4\n", "line 2: blank row"),
                                              ("a\n1,2\n3,4\n", "line 2: ragged row")],
                             ids=["blank-after-header", "header-narrower-than-rows"])
    def test_row_off_the_header_width_rejected(self, tmp_path, text, needle):
        with pytest.raises(ParseError, match=needle):
            load_csv(write_csv(tmp_path, text))

    @pytest.mark.parametrize("text, line", [("\n1,2\n3,4\n", 1), ("1,2\n\n3,4\n", 2),
                                            ("a,b\n1,2\n3,4\n\n", 4)],
                             ids=["first-line", "between-rows", "last-line"])
    def test_blank_line_rejected_with_its_number(self, tmp_path, text, line):
        with pytest.raises(ParseError, match=f"^line {line}: blank row$"):
            load_csv(write_csv(tmp_path, text))

    def test_empty_file_rejected(self, tmp_path):
        path = write_csv(tmp_path, "")
        with pytest.raises(ParseError, match="empty"):
            load_csv(path)

    def test_headerless_file(self, tmp_path):
        path = write_csv(tmp_path, "1,2\n3,4\n")
        table = load_csv(path)
        assert table.names == ["ch0", "ch1"]

    def test_schema_overrides(self, tmp_path):
        path = write_csv(tmp_path, "idx,x\n0,1\n1,2\n", name="s.csv")
        table = load_csv(path, schema={"timestamp_column": "idx", "frequency": "h"})
        assert table.names == ["x"]
        assert table.frequency == "h"

    def test_timestamp_name_looked_up_in_the_stripped_header(self, tmp_path):
        # the header "a, b" names its channels "a" and "b", so "b" is found
        path = write_csv(tmp_path, "a, b\n1,2\n3,4\n")
        table = load_csv(path, schema={"timestamp_column": "b"})
        assert table.names == ["a"]
        np.testing.assert_array_equal(table.values, [[1.0], [3.0]])

    def test_timestamp_name_without_a_header_rejected(self, tmp_path):
        # a headerless file's first row is data: its cells name no column
        path = write_csv(tmp_path, "1,2\n3,4\n")
        with pytest.raises(ConfigError, match="timestamp column '2' not in header"):
            load_csv(path, schema={"timestamp_column": "2"})

    @pytest.mark.parametrize("header, repeated", [("a,a,b", "a"), ("a,b,b", "b"),
                                                  ("date,x, x", "x")])
    def test_repeated_column_name_rejected(self, tmp_path, header, repeated):
        # a repeat would make a channel name select the first column twice
        path = write_csv(tmp_path, header + "\n1,2,3\n4,5,6\n")
        with pytest.raises(ParseError, match=f"^line 1: repeated column name '{repeated}'$"):
            load_csv(path)

    @pytest.mark.parametrize("index", [3, 5, -1])
    def test_timestamp_index_outside_the_row_rejected(self, tmp_path, index):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        with pytest.raises(ConfigError, match=f"timestamp_column: index {index} .*3-column"):
            load_csv(path, schema={"timestamp_column": index})

    def test_timestamp_index_drops_that_column(self, tmp_path):
        path = write_csv(tmp_path, "a,b,c\n1,2,3\n4,5,6\n")
        table = load_csv(path, schema={"timestamp_column": 2})
        assert table.names == ["a", "b"]
        np.testing.assert_array_equal(table.values, [[1.0, 2.0], [4.0, 5.0]])


# Cells a CSV row may hold: numbers, words, a blank cell and non-finite values.
CELLS = (st.integers(-99, 99).map(str) | st.floats(-1e6, 1e6).map(repr)
         | st.sampled_from(["", " 4 ", "x", "date", "NA", "nan", "inf", "-inf"]))


@st.composite
def csv_rows(draw):
    """Rows of one width, one of them maybe replaced by a ragged or blank row."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))] = draw(st.lists(CELLS, max_size=5))
    return rows


def _is_number(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


class TestCsvProperty:
    """Small CSV texts, ragged or blank rows included, either fail closed or
    parse to a finite table with one row per data line."""

    @given(rows=csv_rows())
    def test_csv_fails_closed_or_parses(self, tmp_path_factory, rows):
        path = tmp_path_factory.getbasetemp() / "prop.csv"
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        try:
            table = load_csv(str(path))
        except (ParseError, ConfigError):
            return
        # the first row is a header iff it holds a cell that is not a number
        header = any(not _is_number(cell) for cell in rows[0])
        assert table.n_points == len(rows) - header
        assert np.isfinite(table.values).all()
        assert table.n_channels == len(table.names) >= 1


def brute_force_windows(col, n_points_bounds, L, hz, stride, lookback):
    lo, hi = n_points_bounds
    start = max(lo if lookback else lo + L, L)
    out = []
    for t in range(start, hi - hz + 1, stride):
        out.append((col[t - L:t], col[t:t + hz]))
    return out


class TestWindows:
    def test_ett_shaped_split_counts(self):
        # 7 channels, (8545, 2881, 2881) points, L=96, Hz=24
        n = 8545 + 2881 + 2881
        table = SeriesTable([f"c{i}" for i in range(7)],
                            np.arange(n * 7, dtype=float).reshape(n, 7))
        spec = SplitSpec(8545, 2881, 2881, context_len=96, horizon=24)
        train = make_windows(table, spec, "train")
        assert len(train) == 7 * (8545 - 96 - 24 + 1)
        val = make_windows(table, spec, "val")
        assert len(val) == 7 * (2881 - 24 + 1)
        test = make_windows(table, spec, "test")
        assert len(test) == 7 * (2881 - 24 + 1)

    def test_length_ten_part(self):
        table = SeriesTable(["a"], np.arange(10.0)[:, None])
        spec = SplitSpec(10, 0.0, 0.0, context_len=4, horizon=2)
        # resolve() gives val/test zero points; only train is usable
        ws = make_windows(table, spec, "train")
        assert len(ws) == 5  # 10 - 4 - 2 + 1

    def test_stride_equal_to_part_gives_one_window(self):
        table = SeriesTable(["a"], np.arange(20.0)[:, None])
        spec = SplitSpec(20, 0.0, 0.0, context_len=4, horizon=2, stride=20)
        assert len(make_windows(table, spec, "train")) == 1

    def test_part_too_short_reports_minimum(self):
        table = SeriesTable(["a"], np.arange(10.0)[:, None])
        spec = SplitSpec(5, 3, 2, context_len=4, horizon=3)
        with pytest.raises(ConfigError, match="too short.*at least 7"):
            make_windows(table, spec, "train")

    @pytest.mark.parametrize("part", ["train", "val", "test"])
    def test_negative_part_rejected_by_name(self, part):
        parts = {"train": 5, "val": 3, "test": 2, part: -3}
        with pytest.raises(ConfigError, match=f"data.split.{part}: .*got -3"):
            SplitSpec(**parts, context_len=4, horizon=3)

    def test_non_finite_part_rejected(self):
        with pytest.raises(ConfigError, match="data.split.val"):
            SplitSpec(5, float("nan"), 2, context_len=4, horizon=3)

    def test_one_point_zero_is_one_point(self):
        spec = SplitSpec(1.0, 0.5, 0.25, context_len=4, horizon=3)
        assert spec.resolve(100) == (1, 50, 25)

    def test_enumeration_matches_brute_force(self, rng):
        table = synth_dataset("sines", 5, (60, 3))
        spec = SplitSpec(30, 15, 15, context_len=8, horizon=4, stride=2)
        n_train = 30
        for part, bounds, lookback in (("train", (0, 30), False),
                                       ("val", (30, 45), True),
                                       ("test", (45, 60), True)):
            ws = make_windows(table, spec, part)
            i = 0
            for c in range(3):
                for ctx, tgt in brute_force_windows(table.values[:, c], bounds,
                                                    8, 4, 2, lookback):
                    np.testing.assert_array_equal(ws.contexts[i], ctx)
                    np.testing.assert_array_equal(ws.targets[i], tgt)
                    assert ws.channels[i] == c
                    i += 1
            assert i == len(ws)

    def test_chronological_integrity(self):
        n = 200
        table = SeriesTable(["a"], np.arange(float(n))[:, None])
        spec = SplitSpec(0.6, 0.2, 0.2, context_len=16, horizon=8)
        # values are the index itself, so targets reveal their time range
        t_max = make_windows(table, spec, "train").targets.max()
        v = make_windows(table, spec, "val").targets
        s = make_windows(table, spec, "test").targets
        assert t_max < v.min() <= v.max() < s.min()

    def test_window_count_formula_randomized(self, rng):
        for _ in range(40):
            length = int(rng.integers(10, 80))
            L = int(rng.integers(1, 8))
            hz = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 5))
            if length < L + hz:
                continue
            table = SeriesTable(["a"], rng.normal(size=(length, 1)))
            spec = SplitSpec(length, 0.0, 0.0, context_len=L, horizon=hz, stride=stride)
            ws = make_windows(table, spec, "train")
            expected = len(range(L, length - hz + 1, stride))
            assert len(ws) == expected

    @pytest.mark.parametrize("n_channels", [1, 2, 3, 4])
    def test_randomized_against_brute_force(self, rng, n_channels):
        for _ in range(12):
            L, hz, stride = (int(v) for v in rng.integers(1, [9, 6, 5]))
            n = int(rng.integers(4 * (L + hz), 120))
            if rng.random() < 0.5:
                split = (0.5, 0.25, 0.25)
            else:
                n_train = int(rng.integers(L + hz, n - 2 * hz + 1))
                n_val = int(rng.integers(hz, n - n_train - hz + 1))
                split = (n_train, n_val, int(rng.integers(hz, n - n_train - n_val + 1)))
            table = SeriesTable([f"c{i}" for i in range(n_channels)],
                                rng.normal(size=(n, n_channels)))
            spec = SplitSpec(*split, context_len=L, horizon=hz, stride=stride)
            n_train, n_val, n_test = spec.resolve(n)
            for part, bounds in (("train", (0, n_train)),
                                 ("val", (n_train, n_train + n_val)),
                                 ("test", (n_train + n_val, n_train + n_val + n_test))):
                ws = make_windows(table, spec, part)
                expected = [(ctx, tgt, c) for c in range(n_channels)
                            for ctx, tgt in brute_force_windows(
                                table.values[:, c], bounds, L, hz, stride, part != "train")]
                np.testing.assert_array_equal(ws.contexts, [e[0] for e in expected])
                np.testing.assert_array_equal(ws.targets, [e[1] for e in expected])
                np.testing.assert_array_equal(ws.channels, [e[2] for e in expected])
                assert ws.contexts.shape == (len(expected), L)
                assert ws.targets.shape == (len(expected), hz)
                assert (ws.contexts.dtype, ws.targets.dtype, ws.channels.dtype) == (
                    np.float64, np.float64, np.intp)
                for a in (ws.contexts, ws.targets, ws.channels):
                    assert a.flags.c_contiguous and a.flags.writeable
                    assert not np.shares_memory(a, table.values)


class TestSynth:
    def test_sines_deterministic(self):
        a = synth_dataset("sines", 7, (100, 3))
        b = synth_dataset("sines", 7, (100, 3))
        np.testing.assert_array_equal(a.values, b.values)

    def test_ar1_with_zero_coefficient_is_white_noise(self):
        table = synth_dataset("ar1", 3, (10000, 1), ar_coeff=0.0)
        x = table.values[:, 0]
        r = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(r) < 0.1

    def test_planted_redundancy_tasks_have_distinct_frequencies(self):
        table = synth_dataset("planted_redundancy", 11, (2048, 6))
        assert sum(n.startswith("taskA") for n in table.names) == 3

        def dominant(col):
            spectrum = np.abs(np.fft.rfft(col - col.mean()))
            return np.argmax(spectrum)

        freq_a = [dominant(table.values[:, i]) for i in range(3)]
        freq_b = [dominant(table.values[:, i]) for i in range(3, 6)]
        assert max(freq_a) < min(freq_b)

    def test_select_channels(self):
        table = synth_dataset("planted_redundancy", 1, (64, 4))
        sub = table.select([n for n in table.names if n.startswith("taskA")])
        assert sub.n_channels == 2
        np.testing.assert_array_equal(sub.values, table.values[:, :2])
