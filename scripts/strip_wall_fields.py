#!/usr/bin/env python3
"""Blank the wall-clock fields of a bench CSV so two runs of the same
simulation can be diffed bit-for-bit.

Simulation output is deterministic; wall-clock measurements (construct_s,
wall_s, bench_custom's build-phase times, peak RSS columns and the
`# peak RSS` note) are not. The crash-resume check compares an
interrupted+resumed run against an uninterrupted reference, so those — and
only those — fields are neutralized:

    strip_wall_fields.py run.csv > run.stripped.csv
    strip_wall_fields.py < run.csv

Wall-clock columns are located by name from each table's header row (CSV
schema: header rows lead with the literal field "table", data rows with the
table id — docs/BENCH_OUTPUT.md), so this keeps working when columns move.
A table prints its header once, just before its first row, and tables may
interleave afterwards; so a header belongs to the table id of the data row
that follows it, and every later row of that id is stripped by it.
"""

import csv
import io
import sys

WALL_COLUMNS = {"construct_s", "wall_s", "sweep_wall_s", "factorization_s",
                "acceptance_s", "slice_tables_s", "peak_rss_mb"}
DROP_NOTE_PREFIXES = ("# peak RSS",)


def strip(lines):
    """Yield output lines with wall-clock cells blanked."""
    # Column names per table id, aligned with data-row fields (index 0 is
    # the "table"/table-id field in both), and the header row still waiting
    # for its table's first data row.
    columns_by_id = {}
    pending_header = None
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith("#"):
            if not line.startswith(DROP_NOTE_PREFIXES):
                yield line
            continue
        row = next(csv.reader([line]))
        if not row:
            yield line
            continue
        if row[0] == "table":
            pending_header = row
            yield line
            continue
        if pending_header is not None:
            columns_by_id[row[0]] = pending_header
            pending_header = None
        for i, name in enumerate(columns_by_id.get(row[0], ())):
            if name in WALL_COLUMNS and i < len(row):
                row[i] = ""
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(row)
        yield out.getvalue()


def main(argv):
    if len(argv) > 2 or (len(argv) == 2 and argv[1].startswith("-")):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    source = open(argv[1]) if len(argv) == 2 else sys.stdin
    with source:
        for line in strip(source):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
