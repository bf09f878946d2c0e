"""CSV ingestion and serialization."""
import hashlib
import io

import numpy as np
import pytest

from stve import (
    CsvFormatError,
    RegressionDataset,
    read_csv,
    write_csv,
)
import stve.dataio as dataio

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
        ("t,y,u_2,u_1\n1,1.0,0.1,0.2\n", "in order"),
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


def test_t_beyond_int64_is_a_format_error():
    with pytest.raises(CsvFormatError, match=r"^line 3: t value '99999999999999999999' is larger than 2\*\*63 - 1$"):
        read_text(HEADER + "1,1.0,0.1,0.2\n99999999999999999999,1.0,0.1,0.2\n")
    with pytest.raises(CsvFormatError, match=r"^line 3: t value '9223372036854775808'"):
        read_text(HEADER + "1,1.0,0.1,0.2\n9223372036854775808,1.0,0.1,0.2\n")
    assert read_text(HEADER + "1,1.0,0.1,0.2\n9223372036854775807,1.0,0.1,0.2\n").time_index[-1] == 2**63 - 1


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



# ---------------------------------------------------------------------------
# The np.loadtxt blocks against the csv.reader walk

# Every seventh response blank.
LONG = HEADER + "".join(f"{k},{'' if k % 7 == 0 else k / 3},{k / 10},-{k}e-3\n" for k in range(1, 2500))
# A quoted cell opened on the last line of the first block of 1024 lines and
# closed on the first line of the next.
ACROSS = (
    HEADER + "".join(f"{k},1.0,0.1,0.2\n" for k in range(1, 1024)) + '1024,"1.5\n",0.1,0.2\n1025,1.0,0.1,0.2\n'
)

# (name, text, whether every block is plain enough for np.loadtxt)
VALID_CORPUS = [
    ("comments between rows", HEADER + "1,1.5,0.1,0.2\n# note\n\n2,2.5,0.3,0.4\n  # x\n3,,0.5,0.6\n", True),
    ("crlf line endings", "t,y,u_1,u_2\r\n1,1.5,0.1,0.2\r\n2,,0.3,0.4\r\n3,-1e-5,0.5,0.6\r\n", True),
    ("quoted cells", HEADER + '1,"1.5",0.1,0.2\n2,2.5,"0.3",0.4\n3,3.5,0.5,0.6\n', False),
    ("padded blank y", HEADER + "1,1.5,0.1,0.2\n2,   ,0.3,0.4\n3,3.5,0.5,0.6\n", False),
    ("nan in y", HEADER + "1,1.5,0.1,0.2\n2,NaN,0.3,0.4\n3, nan ,0.5,0.6\n4,4.5, 0.7 ,0.8\n", True),
    ("no t column", "y,u_1,u_2\n1.5,0.1,0.2\n,0.3,0.4\nnan,0.5,0.6\n3.5,0.7,0.8\n", True),
    ("last line unterminated", HEADER + "1,1.5,0.1,0.2\n2,2.5,0.3,0.4", True),
    ("more than one block", LONG, True),
    ("quoted cell across a block edge", ACROSS, False),
]


@pytest.fixture
def refusals(monkeypatch):
    """One entry per block read: True where the np.loadtxt path refused it."""
    refused = []
    load_chunk = dataio._load_block

    def spy(*args):
        part = load_chunk(*args)
        refused.append(part is None)
        return part

    monkeypatch.setattr(dataio, "_load_block", spy)
    return refused


def read_walked(lines):
    # The csv.reader walk alone.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "_load_block", lambda *args: None)
        return read_csv(lines)


@pytest.mark.parametrize("name, text, plain", VALID_CORPUS, ids=[case[0] for case in VALID_CORPUS])
def test_loadtxt_blocks_equal_the_walk_bit_for_bit(refusals, name, text, plain):
    lines = io.StringIO(text, newline="").readlines()
    fast = read_csv(lines)
    assert refusals and any(refusals) != plain
    walked = read_walked(lines)
    for field in ("u", "y", "observed", "time_index"):
        assert getattr(fast, field).dtype == getattr(walked, field).dtype
        assert getattr(fast, field).tobytes() == getattr(walked, field).tobytes()


@pytest.mark.parametrize(
    "text, message",
    [
        (HEADER + "1,1.0,0.1,0.2\n2,1.0#x,0.1,0.2\n", "line 3: cannot parse y value '1.0#x'"),
        (HEADER + "1,1.0,0.1,0.2\n2,-nan,0.1,0.2\n", "line 3: y value '-nan' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,inf,0.1,0.2\n", "line 3: y value 'inf' is not finite"),
        (HEADER + "1,1.0,0.1,0.2\n2,1.0,0.1,0.2,\n", "line 3: expected 4 cells, got 5"),
        (HEADER + "1,1.0,0.1,0.2\n2.0,1.0,0.1,0.2\n", "line 3: cannot parse t value '2.0'"),
        (HEADER + "".join(f"{k},1.0,0.1,0.2\n" for k in range(1, 1200)) + "1200,1.0,0.1,zz\n",
         "line 1201: cannot parse u_2 value 'zz'"),
        (ACROSS + "1026,1.0,bad,0.2\n", "line 1028: cannot parse u_1 value 'bad'"),
    ],
    ids=["inline hash", "-nan y", "inf y", "trailing comma", "t 2.0", "second block", "after a quoted cell"],
)
def test_refused_blocks_report_the_walks_error(refusals, text, message):
    with pytest.raises(CsvFormatError) as info:
        read_text(text)
    assert str(info.value) == message
    assert refusals[-1]


def test_underscored_number_is_refused_then_read_by_the_walk(refusals):
    dataset = read_text(HEADER + "1,1.0,0.1,0.2\n2,1_0,0.1,0.2\n")
    assert refusals == [True]
    assert dataset.y.tolist() == [1.0, 10.0]


def test_cell_past_the_csv_field_limit_is_a_format_error():
    # np.loadtxt would parse this cell; csv.reader refuses it, and its error
    # is reported with the line.
    with pytest.raises(CsvFormatError, match=r"^line 3: field larger than field limit \(\d+\)$"):
        read_text(HEADER + "1,1.0,0.1,0.2\n2,1.0,0.1,0." + "0" * 200_000 + "1\n")


def test_header_past_the_csv_field_limit_is_a_format_error():
    with pytest.raises(CsvFormatError, match=r"^line 2: field larger than field limit"):
        read_text("# manifest\nt,y,u_" + "1" * 200_000 + "\n1,1.0,0.1\n")


def test_digest_covers_every_line_read(tmp_path):
    data = ("# manifest\n" + LONG).encode()
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    digest = hashlib.sha256()
    read_csv(str(path), digest=digest)
    assert digest.hexdigest() == hashlib.sha256(data).hexdigest()
