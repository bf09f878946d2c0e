"""CSV ingestion and serialization."""
import io

import numpy as np
import pytest

from stve import (
    CsvFormatError,
    RegressionDataset,
    read_csv,
    write_csv,
)

from conftest import make_dataset


def read_text(text):
    return read_csv(io.StringIO(text))


# ---------------------------------------------------------------------------
# read_csv


def test_empty_y_cell_becomes_missing():
    dataset = read_text("t,y,u_1\n1,1.5,0.1\n2,,0.2\n3,-0.5,0.3\n")
    assert np.array_equal(dataset.observed, [True, False, True])
    assert np.isnan(dataset.y[1])
    np.testing.assert_array_equal(dataset.y[[0, 2]], [1.5, -0.5])


def test_header_infers_dimension():
    dataset = read_text("t,y,u_1,u_2\n1,1.0,0.1,0.2\n2,2.0,0.3,0.4\n")
    assert dataset.dim == 2
    assert dataset.horizon == 2
    np.testing.assert_array_equal(dataset.u, [[0.1, 0.2], [0.3, 0.4]])


def test_t_column_optional():
    dataset = read_text("y,u_1\n1.0,0.1\n2.0,0.2\n")
    assert np.array_equal(dataset.time_index, [1, 2])


def test_t_gaps_preserved_as_labels():
    dataset = read_text("t,y,u_1\n1,1.0,0.1\n2,2.0,0.2\n4,4.0,0.4\n")
    assert np.array_equal(dataset.time_index, [1, 2, 4])


def test_nan_token_accepted_as_missing():
    dataset = read_text("t,y,u_1\n1,nan,0.1\n2,NaN,0.2\n3,1.0,0.3\n4,2.0,0.4\n")
    assert np.array_equal(dataset.observed, [False, False, True, True])


def test_comment_lines_skipped():
    dataset = read_text("# run manifest\nt,y,u_1\n1,1.0,0.1\n2,2.0,0.2\n")
    assert dataset.horizon == 2


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty input"),
        ("t,y,u_1\n", "no data rows"),
        ("time,y,u_1\n1,1.0,0.1\n", "header"),
        ("t,y,u_1\n1,1.0\n", "3 cells"),
        ("t,y,u_1\n1,abc,0.1\n2,1.0,0.2\n", "y value"),
        ("t,y,u_1\n1,1.0,\n2,1.0,0.2\n", "u_1"),
        ("t,y,u_1\nx,1.0,0.1\n", "t value"),
        ("t,y,u_1\n2,1.0,0.1\n1,2.0,0.2\n", "increasing"),
        ("t,y,u_1\n0,1.0,0.1\n", "1-based"),
        ("t,y,u_1\n1,1.0,oops\n", "u_1"),
    ],
)
def test_malformed_input_raises(text, fragment):
    with pytest.raises(CsvFormatError, match=fragment):
        read_text(text)


def test_errors_carry_line_numbers():
    with pytest.raises(CsvFormatError, match="line 3"):
        read_text("t,y,u_1\n1,1.0,0.1\n2,bad,0.2\n")


def test_missing_u_is_never_imputed():
    # a blank u cell is an error, not a zero
    with pytest.raises(CsvFormatError, match="u_2"):
        read_text("t,y,u_1,u_2\n1,1.0,0.1,\n")


HEADER = "t,y,u_1,u_2\n"


@pytest.mark.parametrize(
    "text, message",
    [
        # Two errors: the earlier line is the one reported, whichever column
        # holds it.
        (HEADER + "1,1.0,0.1,0.2\n2,1.0,nan,0.2\n3,1.0,0.1,0.2\n2,1.0,0.1,0.2\n",
         "line 3: u_1 value 'nan' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,inf,0.1,0.2\n3,1.0,0.1\n", "line 3: y value 'inf' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,oops,0.1,0.2\n3,1.0,0.1,0.2,9\n", "line 3: cannot parse y value 'oops'"),
        # Quoted cells spanning lines: the number is the physical line.
        (HEADER + '1,"1.5\n",0.1,0.2\n2,1.0,"0.1\n\n",0.2\n3,bad,0.1,0.2\n', "line 7: cannot parse y value 'bad'"),
        ("# c\n" + HEADER + "1,1.0,0.1,0.2\n\n# mid\n2,x,0.1,0.2\n", "line 6: cannot parse y value 'x'"),
        # Padded cells are reported stripped.
        (HEADER + " 1 , 1.5 , 0.1 , 0.2 \n2,  abc  ,0.1,0.2\n", "line 3: cannot parse y value 'abc'"),
        (HEADER + "1,1.0,0.1,0.2\n2,inf,0.1,0.2\n", "line 3: y value 'inf' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,-nan,0.1,0.2\n", "line 3: y value '-nan' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,1.0,0.1,-inf\n", "line 3: u_2 value '-inf' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,1.0,NaN,0.2\n", "line 3: u_1 value 'NaN' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,1.0, ,0.2\n", "line 3: missing u_1 cell"),
        (HEADER + "1,1.0,0.1,0.2\n2.0,1.0,0.1,0.2\n", "line 3: cannot parse t value '2.0'"),
        ("y,u_1\n1.0,0.1\n2.0,1e999\n", "line 3: u_1 value '1e999' is not finite"),
        # Past the first block of rows, and t checked across the block edge.
        (HEADER + "".join(f"{k},1.0,0.1,0.2\n" for k in range(1, 1500)) + "1500,1.0,0.1,x\n",
         "line 1501: cannot parse u_2 value 'x'"),
        (HEADER + "".join(f"{k},1.0,0.1,0.2\n" for k in range(1, 1025)) + "1024,1.0,0.1,0.2\n",
         "line 1026: t values must be 1-based and strictly increasing"),
    ],
)
def test_error_message_and_line(text, message):
    with pytest.raises(CsvFormatError) as info:
        read_text(text)
    assert str(info.value) == message


def test_padded_cells_and_nan_tokens_parse():
    dataset = read_text(
        "t , y , u_1 , u_2\n 1 , 1.5 ,  0.1 , 0.2 \n2,  NaN ,0.1,0.2\n3, nan ,0.1,0.2\n"
        "4,   ,0.1,0.2\n5,2.0,0.3,0.4\n"
    )
    assert dataset.observed.tolist() == [True, False, False, False, True]
    np.testing.assert_array_equal(dataset.y[[0, 4]], [1.5, 2.0])
    np.testing.assert_array_equal(dataset.u[[0, 4]], [[0.1, 0.2], [0.3, 0.4]])
    assert dataset.time_index.tolist() == [1, 2, 3, 4, 5]


def test_bad_row_reported_before_a_later_undecodable_byte(tmp_path):
    text = "t,y,u_1\n1,1.0,0.1\n2,bad,0.2\n" + "".join(f"{k},1.0,0.123456789\n" for k in range(3, 900))
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode() + b"900,1.0,\xff\n")
    with pytest.raises(CsvFormatError, match="line 3: cannot parse y value 'bad'"):
        read_csv(str(path))


def test_t_beyond_int64_overflows_after_parsing():
    with pytest.raises(OverflowError):
        read_text(HEADER + "1,1.0,0.1,0.2\n99999999999999999999,1.0,0.1,0.2\n")


def test_long_input_matches_round_trip(rng):
    # Several blocks, missing rows in each.
    dataset = make_dataset(rng, T=2500, n=3, missing=(1, 1024, 1025, 2048, 2500))
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    back = read_csv(io.StringIO(buffer.getvalue()))
    assert np.array_equal(back.u, dataset.u)
    assert back.u.flags.c_contiguous
    assert np.array_equal(back.observed, dataset.observed)
    assert np.array_equal(back.time_index, dataset.time_index)
    np.testing.assert_array_equal(back.y[back.observed], dataset.y[dataset.observed])


# ---------------------------------------------------------------------------
# write_csv round trip


def test_round_trip_identity(rng):
    dataset = make_dataset(rng, T=17, n=3, missing=(2, 9))
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    back = read_csv(io.StringIO(buffer.getvalue()))
    assert np.array_equal(back.u, dataset.u)
    assert np.array_equal(back.observed, dataset.observed)
    assert np.array_equal(back.time_index, dataset.time_index)
    np.testing.assert_array_equal(back.y[back.observed], dataset.y[dataset.observed])


def test_round_trip_preserves_noncontiguous_labels(rng):
    base = make_dataset(rng, T=8, n=2)
    keep = np.array([0, 1, 3, 6])
    dataset = RegressionDataset(
        u=base.u[keep],
        y=base.y[keep],
        observed=base.observed[keep],
        time_index=base.time_index[keep],
    )
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    back = read_csv(io.StringIO(buffer.getvalue()))
    assert np.array_equal(back.time_index, [1, 2, 4, 7])
    assert np.array_equal(back.u, dataset.u)


def test_comment_round_trip(rng):
    dataset = make_dataset(rng, T=5, n=1)
    buffer = io.StringIO()
    buffer.write("# config digest abc123\n")
    write_csv(dataset, buffer)
    text = buffer.getvalue()
    assert text.startswith("# config digest abc123\n")
    back = read_csv(io.StringIO(text))
    assert back.horizon == 5


def test_missing_rows_written_as_empty_cells(rng):
    dataset = make_dataset(rng, T=3, n=1, missing=(2,))
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    row = buffer.getvalue().splitlines()[2]
    assert row.split(",")[1] == ""

