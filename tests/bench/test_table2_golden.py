"""Golden Table 2 rows: every ``generate_table2`` field, exactly.

``golden/table2_ops40_seed1.json`` holds the rows of compress, sunflow
and xml.transform at ``operations=40, seed=1``. The collector's
statistics (unique encodings, stack depth and UCP sums, the maximum ID)
and the PCC baseline feed every column, so a change to how the probe,
the collector or the interning records a sample that moves any number
fails here. Floats are compared exactly: JSON keeps ``repr`` precision.
"""

import json
import os

from repro.bench.table2 import generate_table2

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "table2_ops40_seed1.json"
)
PROGRAMS = ("compress", "sunflow", "xml.transform")


def test_table2_rows_match_the_golden_rows():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = generate_table2(PROGRAMS, operations=40, seed=1)
    assert [row["name"] for row in want] == list(PROGRAMS)
    assert got == want
