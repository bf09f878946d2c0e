"""CSV input/output.

CSV schema: header row, comma-delimited, UTF-8.  Columns are an optional
integer index column "t" (strictly increasing, 1-based, at most 2**63 - 1,
so that it fits int64), the response column
"y", then feature columns "u_1" ... "u_n" in order.  An empty y cell (or the
token "nan", any case) marks a missing response; every u cell is required.
Any other non-finite value (inf, or nan in a u cell) is malformed input.
Lines starting with '#' are comments and are skipped, which is where run
manifests live in files written by the CLI.

The reader finds the header with `csv.reader`, then reads the data lines in
blocks of 1024.  A block of plain numeric lines is parsed by numpy's C reader,
`np.loadtxt`, and checked on whole arrays: the cell count, strictly increasing
integer t >= 1, finite u, and a non-finite y only from a blank or nan cell.
Any block that fails one of these, or holds a quote, a line break inside a
line or an over-long line, is walked again through `csv.reader` row by row,
which reports the first bad row with its physical line number (a quoted cell
may span lines, even past the end of the block).  An error of the csv module
itself, such as a cell over its field limit, is a CsvFormatError with the
physical line as well, in the header as in the data.  The writer formats a block
of each column at once with `repr`, so floats round-trip exactly.
"""
from __future__ import annotations

import csv
import itertools
import math
from typing import IO, Iterable, Sequence

import numpy as np

from .operators import RegressionDataset

__all__ = [
    "CsvFormatError",
    "read_csv",
    "write_csv",
    "write_columns",
]


class CsvFormatError(ValueError):
    """Malformed CSV input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


def _parse_float(cell: str, what: str, line: int) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(f"cannot parse {what} value {cell!r}", line) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"{what} value {cell!r} is not finite", line)
    return value


def read_csv(source: str | Iterable[str], digest=None) -> RegressionDataset:
    """Parse a dataset CSV from a path or an iterable of lines (such as an open
    file); raises CsvFormatError with a line number on bad input.  digest, if
    given (a hashlib object), is updated with the UTF-8 bytes of every line
    read."""
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8") as fh:
            return _read_csv(fh, digest)
    return _read_csv(source, digest)


# Lines are read, and rows written, in blocks of this many, so memory holds
# one block of text.
_BLOCK = 1024
# Lines the csv module reads as blank records.
_BLANK = frozenset(("", "\n", "\r\n"))
# Width of the text field a y cell is read into.
_Y_WIDTH = 32
# Largest t label: time labels are stored as int64.
_T_MAX = np.iinfo(np.int64).max


def _is_comment(record: list[str]) -> bool:
    return record[0].lstrip().startswith("#")


def _read_csv(source: Iterable[str], digest) -> RegressionDataset:
    lines = iter(source)

    def fed(more: Iterable[str]):
        for line in more:
            if digest is not None:
                digest.update(line.encode("utf-8"))
            yield line

    header = csv.reader(fed(lines))
    try:
        for record in header:
            if record and not _is_comment(record):
                has_t, dim = _parse_header(record, header.line_num)
                break
        else:
            raise CsvFormatError("empty input, no header row")
    except csv.Error as exc:
        raise CsvFormatError(str(exc), header.line_num) from None

    def walk(block: list[str], before: int, prev_t: int, error: UnicodeError | None) -> tuple[tuple, int]:
        # The reference parse: csv.reader over the block, then _parse_rows.  A
        # quoted cell still open at the block's end reads on into the stream.
        # Returns the rows and the number of lines read.
        def spill():
            yield from block
            if error is not None:
                raise error
            yield from fed(lines)

        reader = csv.reader(spill())
        records: list[list[str]] = []
        numbers: list[int] = []
        try:
            for record in reader:
                if record and not _is_comment(record):
                    records.append(record)
                    numbers.append(before + reader.line_num)
                if reader.line_num >= len(block):
                    break
        except (csv.Error, UnicodeError) as exc:
            # A bad row read before the unreadable line is reported first.
            _parse_rows(records, numbers, has_t, dim, prev_t)
            if isinstance(exc, UnicodeError):
                raise
            raise CsvFormatError(str(exc), before + reader.line_num) from None
        return _parse_rows(records, numbers, has_t, dim, prev_t), reader.line_num

    parts: list[tuple] = []
    before = header.line_num
    prev_t = 0
    while True:
        block: list[str] = []
        error = None
        try:
            block.extend(itertools.islice(lines, _BLOCK))
        except UnicodeError as exc:
            error = exc
        if digest is not None:
            digest.update("".join(block).encode("utf-8"))
        if block:
            part = _load_block(block, has_t, dim, prev_t)
            used = len(block)
            if part is None:
                part, used = walk(block, before, prev_t, error)
            before += used
            if len(part[1]):
                parts.append(part)
                prev_t = part[0][-1] if has_t else 0
        if error is not None:
            raise error
        if len(block) < _BLOCK:
            break

    if not parts:
        raise CsvFormatError("no data rows")
    times, ys, mask, rows = zip(*parts)
    return RegressionDataset(
        u=np.concatenate([np.asarray(r, dtype=np.float64).reshape(-1, dim) for r in rows]),
        y=np.concatenate([np.asarray(v, dtype=np.float64) for v in ys]),
        observed=np.concatenate([np.asarray(m, dtype=bool) for m in mask]),
        time_index=np.concatenate([np.asarray(t, dtype=np.int64) for t in times]) if has_t else None,
    )


def _parse_header(record: list[str], line: int) -> tuple[bool, int]:
    # (whether there is a t column, number of u columns)
    header = [cell.strip() for cell in record]
    has_t = bool(header) and header[0] == "t"
    body = header[1:] if has_t else header
    if not body or body[0] != "y":
        raise CsvFormatError("header must be 't,y,u_1,...' or 'y,u_1,...'", line)
    feats = body[1:]
    expected = [f"u_{j}" for j in range(1, len(feats) + 1)]
    if not feats or feats != expected:
        raise CsvFormatError(f"feature columns must be u_1..u_n in order, got {feats}", line)
    return has_t, len(feats)


def _load_block(block: list[str], has_t: bool, dim: int, prev_t: int) -> tuple | None:
    """(t, y, observed, u) of a block of data lines, parsed by np.loadtxt with
    the checks of `_parse_rows` run on whole arrays; None when the block needs
    the csv.reader walk instead, which then accepts it or reports its first
    bad row.  That is a block with a quote, a line longer than the csv field
    limit, a line break inside a line, or a row that fails a check."""
    text = "".join(block)
    if '"' in text or max(map(len, block)) > csv.field_size_limit():
        return None
    if "#" in text or not _BLANK.isdisjoint(block):
        block = [line for line in block if line not in _BLANK and not line.lstrip().startswith("#")]
        if not block:
            return None
    # y is read as text, so an empty cell can mark a missing response, then
    # parsed as numbers with the blanks read as nan.  A cell that fills its
    # text field may have been cut short.
    fields = [("y", f"U{_Y_WIDTH}"), ("u", np.float64, (dim,))]
    options = {"delimiter": ",", "comments": None, "quotechar": None, "ndmin": 1}
    try:
        table = np.loadtxt(block, dtype=([("t", np.int64)] if has_t else []) + fields, **options)
        if len(table) != len(block) or np.char.str_len(table["y"]).max() >= _Y_WIDTH:
            return None
        cells = np.where(table["y"] == "", "nan", table["y"])
        y = np.loadtxt(cells.tolist(), dtype=np.float64, **options)
    except ValueError:
        return None
    u = table["u"]
    times = table["t"] if has_t else None
    observed = np.isfinite(y)
    if (
        (has_t and not (times[0] > prev_t and np.all(times[1:] > times[:-1])))
        or not np.all(np.isfinite(u))
        or not np.all(np.char.lower(np.char.strip(cells[~observed])) == "nan")
    ):
        return None
    # Copies, so the block's table, text cells included, is freed.
    return (times.copy() if has_t else None), y, observed, u.copy()


def _parse_rows(records: list[list[str]], lines: list[int], has_t: bool, dim: int, prev_t: int) -> tuple:
    # The reference parse: one row at a time, checks in the order of the cells.
    times: list[int] = []
    ys: list[float] = []
    mask: list[bool] = []
    rows: list[list[float]] = []
    for record, line in zip(records, lines):
        cells = [cell.strip() for cell in record]
        if len(cells) != dim + 1 + (1 if has_t else 0):
            raise CsvFormatError(
                f"expected {dim + 1 + (1 if has_t else 0)} cells, got {len(cells)}", line
            )
        pos = 0
        if has_t:
            try:
                t_val = int(cells[0])
            except ValueError:
                raise CsvFormatError(f"cannot parse t value {cells[0]!r}", line) from None
            if t_val > _T_MAX:
                raise CsvFormatError(f"t value {cells[0]!r} is larger than 2**63 - 1", line)
            if t_val < 1 or t_val <= (times[-1] if times else prev_t):
                raise CsvFormatError("t values must be 1-based and strictly increasing", line)
            times.append(t_val)
            pos = 1
        y_cell = cells[pos]
        if y_cell == "" or y_cell.lower() == "nan":
            ys.append(math.nan)
            mask.append(False)
        else:
            ys.append(_parse_float(y_cell, "y", line))
            mask.append(True)
        u_row = []
        for j, cell in enumerate(cells[pos + 1 :], start=1):
            if cell == "":
                raise CsvFormatError(f"missing u_{j} cell", line)
            u_row.append(_parse_float(cell, f"u_{j}", line))
        rows.append(u_row)
    return times, ys, mask, rows


def write_csv(dataset: RegressionDataset, destination: str | IO[str]) -> None:
    """Write a dataset CSV (full float precision, empty y cell at missing rows)
    to a path or an open text stream; a caller writes any '#' comment lines
    to the stream first."""
    header = ["t", "y"] + [f"u_{j}" for j in range(1, dataset.dim + 1)]
    columns = [dataset.time_index, (dataset.y, dataset.observed), *dataset.u.T]
    if isinstance(destination, str):
        with open(destination, "w", newline="", encoding="utf-8") as fh:
            write_columns(fh, header, columns)
    else:
        write_columns(destination, header, columns)


def write_columns(fh: IO[str], header: Sequence[str], columns: Sequence) -> None:
    """Write a header line, then one comma-separated line per row.

    Each column is an array, or a pair (array, shown) whose cells are empty
    where shown is False.  A cell is the repr of the Python number, so floats
    keep full precision.  Rows are formatted a block at a time, each column of
    a block at once.
    """
    fh.write(",".join(header) + "\n")
    columns = [col if isinstance(col, tuple) else (col, None) for col in columns]
    for start in range(0, len(columns[0][0]), _BLOCK):
        cells = []
        for values, shown in columns:
            col = list(map(repr, values[start : start + _BLOCK].tolist()))
            if shown is not None:
                for k in np.flatnonzero(~shown[start : start + _BLOCK]):
                    col[k] = ""
            cells.append(col)
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
