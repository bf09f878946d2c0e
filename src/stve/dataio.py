"""CSV input/output and the train/test split.

CSV schema: header row, comma-delimited, UTF-8.  Columns are an optional
integer index column "t" (strictly increasing, 1-based), the response column
"y", then feature columns "u_1" ... "u_n" in order.  An empty y cell (or the
token "nan", any case) marks a missing response; every u cell is required.
Any other non-finite value (inf, or nan in a u cell) is malformed input.
Lines starting with '#' are comments and are skipped, which is where run
manifests live in files written by the CLI.
"""
from __future__ import annotations

import csv
import math
from typing import IO, Iterable

import numpy as np

from .operators import RegressionDataset, select_rows

__all__ = [
    "CsvFormatError",
    "read_csv",
    "write_csv",
    "split_dataset",
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


def _read_csv(fh: Iterable[str]) -> RegressionDataset:
    reader = csv.reader(fh)
    header: list[str] | None = None
    has_t = False
    dim = 0
    times: list[int] = []
    ys: list[float] = []
    mask: list[bool] = []
    rows: list[list[float]] = []

    for record in reader:
        line = reader.line_num
        if not record or (record[0].lstrip().startswith("#")):
            continue
        cells = [cell.strip() for cell in record]
        if header is None:
            header = cells
            has_t = bool(header) and header[0] == "t"
            body = header[1:] if has_t else header
            if not body or body[0] != "y":
                raise CsvFormatError("header must be 't,y,u_1,...' or 'y,u_1,...'", line)
            feats = body[1:]
            expected = [f"u_{j}" for j in range(1, len(feats) + 1)]
            if not feats or feats != expected:
                raise CsvFormatError(
                    f"feature columns must be u_1..u_n in order, got {feats}", line
                )
            dim = len(feats)
            continue
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
            if t_val < 1 or (times and t_val <= times[-1]):
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

    if header is None:
        raise CsvFormatError("empty input, no header row")
    if not rows:
        raise CsvFormatError("no data rows")
    return RegressionDataset(
        u=np.array(rows, dtype=np.float64),
        y=np.array(ys, dtype=np.float64),
        observed=np.array(mask, dtype=bool),
        time_index=np.array(times, dtype=np.int64) if has_t else None,
    )


def write_csv(dataset: RegressionDataset, destination: str | IO[str], comment: str | None = None) -> None:
    """Write a dataset CSV (full float precision, empty y cell at missing rows)."""
    if isinstance(destination, str):
        with open(destination, "w", newline="", encoding="utf-8") as fh:
            _write_csv(dataset, fh, comment)
    else:
        _write_csv(dataset, destination, comment)


def _write_csv(dataset: RegressionDataset, fh: IO[str], comment: str | None) -> None:
    if comment is not None:
        fh.write("# " + comment.rstrip("\n") + "\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["t", "y"] + [f"u_{j}" for j in range(1, dataset.dim + 1)])
    for k in range(dataset.horizon):
        y_cell = repr(float(dataset.y[k])) if dataset.observed[k] else ""
        writer.writerow(
            [int(dataset.time_index[k]), y_cell]
            + [repr(float(v)) for v in dataset.u[k]]
        )


def split_dataset(dataset: RegressionDataset, train_rows: int) -> tuple[RegressionDataset, RegressionDataset]:
    """Split into the first train_rows rows and the rest, time labels kept."""
    total = dataset.horizon
    if not (0 < train_rows < total):
        raise ValueError("train_rows must leave both splits non-empty")
    train = select_rows(dataset, np.arange(train_rows))
    test = select_rows(dataset, np.arange(train_rows, total))
    return train, test
