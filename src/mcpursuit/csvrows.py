"""Trajectory CSV rows: the column order, the row template and the row loop.

This module imports only the standard library, so it also runs on its own as
the CSV row writer of ``scenario_io.TrajectoryCsvStream``::

    python -I -S csvrows.py DATA

The writer reads chunk row counts from standard input, each an 8-byte
native-endian integer. For a count n it reads the next 14 * n native doubles
from the file DATA, laid out column by column (n values of each column, in
CSV_COLUMNS order), and writes those n rows to standard output as ASCII
bytes. It exits 0 when standard input ends, and non-zero if DATA runs short.
"""

import sys

CSV_COLUMNS = (
    "t", "px", "py", "ptheta", "ex", "ey", "etheta",
    "u_p", "u_e", "r_norm", "gamma", "w", "los_rate", "residual",
)

#: Seventeen significant digits: every double parses back bit-identically.
F17 = "%.17g"
CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"
#: One row as ASCII bytes: bytes %-formatting prints a float as str's does.
CSV_ROW = (",".join([F17] * len(CSV_COLUMNS)) + "\n").encode("ascii")

#: Bytes of one chunk row count on the writer's standard input.
COUNT_BYTES = 8


def rows(columns):
    """The CSV lines, newline included, of equal-length columns of floats, as ASCII bytes."""
    return map(CSV_ROW.__mod__, zip(*columns))


def _write_chunks(counts, data, out) -> None:
    width = len(CSV_COLUMNS)
    while True:
        head = counts.read(COUNT_BYTES)
        if not head:
            return
        if len(head) != COUNT_BYTES:
            raise EOFError("row count cut short")
        n = int.from_bytes(head, sys.byteorder)
        size = 8 * width * n
        block = data.read(size)
        if len(block) != size:
            raise EOFError(f"chunk of {n} rows cut short")
        values = memoryview(block).cast("d")
        out.write(b"".join(rows(values[i * n:(i + 1) * n] for i in range(width))))


def main(argv) -> int:
    with open(argv[1], "rb") as data:
        _write_chunks(sys.stdin.buffer, data, sys.stdout.buffer)
    sys.stdout.buffer.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
