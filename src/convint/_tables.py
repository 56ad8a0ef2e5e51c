"""The CSV format of the tabulated kernel, excess weight and response map:
a header row, then data rows of numbers, at least one per header column.
Lines starting with '#' are comments, anywhere in the file; one may carry
the table's metadata as '# key=number'. Blank lines are skipped.
"""

import csv
from contextlib import contextmanager

import numpy as np


def increasing(x) -> bool:
    """Whether the sample coordinates x are finite and strictly increasing;
    false where one is NaN."""
    return bool(np.all(np.isfinite(x)) and np.all(np.diff(x) > 0.0))


@contextmanager
def read_table(path, key=None):
    """The table at path as (header, data, value): the column names, a float
    array of the data rows' first len(header) cells, and the number on the
    '# key=...' line or None. A format error, or a ValueError in the with block,
    is raised as a ValueError naming the file, and the line while reading."""
    value, at = None, 0

    def content(fh):
        # the lines csv reads; at is the number of the last line read
        nonlocal value, at
        for at, line in enumerate(fh, start=1):
            line = line.strip()
            if not line.startswith("#"):
                if line:
                    yield line
            elif line.lstrip("#").partition("=")[0].strip() == key:
                value = float(line.partition("=")[2])

    data = []
    try:
        with open(path, newline="") as fh:
            lines = content(fh)
            header = [h.strip() for h in next(csv.reader(lines), ())]
            # this reader float()s each unquoted cell but leaves an empty one ''
            for row in csv.reader(lines, quoting=csv.QUOTE_NONNUMERIC):
                cells = row[:len(header)]
                if len(cells) < len(header) or "" in cells:
                    raise ValueError(f"expected {len(header)} numbers, got {row}")
                data.append(cells)
        at = None
        if not data:
            raise ValueError("no data rows")
        yield header, np.array(data, dtype=float), value
    except (ValueError, csv.Error) as exc:
        raise ValueError(f"{path}: {exc}" if at is None else f"{path}: line {at}: {exc}") from exc
