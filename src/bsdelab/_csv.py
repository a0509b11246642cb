"""The one writer of the CSV artifacts."""

import csv
import numbers


def _cell(value):
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        return repr(float(value))
    return value


def write_csv(path, header, rows) -> None:
    """Write the header and the rows to path. A real number that is not an
    integer, numpy's included, is written as repr(float(x)), its shortest
    round-trip form, so float() reads it back bit for bit; ints and strings
    are written as csv writes them."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(value) for value in row] for row in rows)
