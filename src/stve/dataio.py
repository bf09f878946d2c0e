"""CSV input/output.

CSV schema: header row, comma-delimited, UTF-8.  Columns are an optional
integer index column "t" (strictly increasing, 1-based), the response column
"y", then feature columns "u_1" ... "u_n" in order.  An empty y cell (or the
token "nan", any case) marks a missing response; every u cell is required.
Any other non-finite value (inf, or nan in a u cell) is malformed input.
Lines starting with '#' are comments and are skipped, which is where run
manifests live in files written by the CLI.

The reader streams its input through `csv.reader` and converts the data rows
in blocks of 1024, a column at a time: `int` over the t cells, `float` over the
y and u cells, then the finiteness and ordering checks on whole arrays.  A
block where any of that fails is walked again row by row, which reports the
first bad row with its physical line number (a quoted cell may span lines).
The writer formats a block of each column at once with `repr`, so floats
round-trip exactly.
"""
from __future__ import annotations

import csv
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


def read_csv(source: str | Iterable[str]) -> RegressionDataset:
    """Parse a dataset CSV from a path or an iterable of lines (such as an open
    file); raises CsvFormatError with a line number on bad input."""
    if isinstance(source, str):
        with open(source, newline="", encoding="utf-8") as fh:
            return _read_csv(fh)
    return _read_csv(source)


# Data records are converted in blocks of this many, so memory holds one
# block of cell strings, not the whole file.
_BLOCK = 1024


def _read_csv(fh: Iterable[str]) -> RegressionDataset:
    reader = csv.reader(fh)
    layout: tuple[bool, int] | None = None  # (has_t, dim), from the header
    block: list[list[str]] = []
    lines: list[int] = []
    parts: list[tuple] = []

    def convert() -> None:
        has_t, dim = layout
        prev_t = parts[-1][0][-1] if has_t and parts else 0
        parts.append(_convert_block(block, lines, has_t, dim, prev_t))
        block.clear()
        lines.clear()

    try:
        for record in reader:
            if not record or record[0].lstrip().startswith("#"):
                continue
            if layout is None:
                layout = _parse_header(record, reader.line_num)
                continue
            block.append(record)
            lines.append(reader.line_num)
            if len(block) == _BLOCK:
                convert()
    except (csv.Error, UnicodeError):
        # A bad row read before the unreadable line is reported first.
        if block:
            convert()
        raise
    if block:
        convert()

    if layout is None:
        raise CsvFormatError("empty input, no header row")
    if not parts:
        raise CsvFormatError("no data rows")
    has_t, dim = layout
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


def _convert_block(records: list[list[str]], lines: list[int], has_t: bool, dim: int, prev_t: int) -> tuple:
    """(t, y, observed, u) of a block of data records, converted a column at
    a time.  A cell or check that fails in bulk sends the block through
    `_parse_rows`, which walks it row by row and raises the first error at its
    line (or accepts what only fails in bulk, such as a blank y cell padded
    with spaces)."""
    first = 1 if has_t else 0
    count = len(records)
    if set(map(len, records)) != {first + 1 + dim}:
        return _parse_rows(records, lines, has_t, dim, prev_t)
    columns = list(zip(*records))
    y_cells = columns[first]
    try:
        times = np.fromiter(map(int, columns[0]), np.int64, count) if has_t else None
        y = np.fromiter(map(float, [cell or "nan" for cell in y_cells]), np.float64, count)
        u = np.empty((count, dim))
        for j in range(dim):
            u[:, j] = np.fromiter(map(float, columns[first + 1 + j]), np.float64, count)
        ordered = not has_t or (times[0] > prev_t and np.all(np.diff(times) > 0))
    except (ValueError, OverflowError):
        return _parse_rows(records, lines, has_t, dim, prev_t)
    observed = np.isfinite(y)
    if (
        not ordered
        or not np.all(np.isfinite(u))
        or any(y_cells[k].strip().lower() not in ("", "nan") for k in np.flatnonzero(~observed))
    ):
        return _parse_rows(records, lines, has_t, dim, prev_t)
    return times, y, observed, u


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
