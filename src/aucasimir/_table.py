"""The package's one reader of text tables: one row of numbers per line.

Blank lines are skipped, lines starting with '#' are comments, and columns
are separated by commas or whitespace.  Every value must be a finite float,
so no field may be empty (two commas in a row, or a comma at either end of
a line); every error names the file and the line.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import DataFormatError


def read_table(path, n_columns: int, what: str):
    """(values, line numbers, comments) of a table of `n_columns` columns.

    `values` is a float array with one row per data line, `comments` a list
    of (line number, stripped text); `what` names the kind of file.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"{what} file not found: {path}")
    values, lines, comments = [], [], []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line[0] == "#":
            comments.append((lineno, line))
            continue
        if "," in line:
            # nothing but blanks before the first comma, between two or
            # after the last is an empty field
            if not all(map(str.strip, line.split(","))):
                raise DataFormatError(f"{path}:{lineno}: empty field")
            line = line.replace(",", " ")
        parts = line.split()
        if len(parts) != n_columns:
            raise DataFormatError(f"{path}:{lineno}: expected {n_columns} "
                                  f"{what} columns, got {len(parts)}")
        try:
            row = list(map(float, parts))
        except ValueError:
            raise DataFormatError(f"{path}:{lineno}: non-numeric value") from None
        if not all(map(math.isfinite, row)):
            raise DataFormatError(f"{path}:{lineno}: non-finite value")
        values += row
        lines.append(lineno)
    if not lines:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(values).reshape(-1, n_columns), lines, comments
