"""Golden bytes: suite CSVs at a fixed seed and scale must not change.

The digests were computed once from the CSV that ``pwreject simulate``
writes (``CSV_COLUMNS`` header, ``\\n`` line ends) and are never
regenerated: a change that alters a single replicate decision, a draw or
the float formatting of a rate fails here.
"""

import csv
import hashlib
import io

import pytest

from pwreject.simulation import CSV_COLUMNS, run_suite

SEED = 3
SCALE = 0.002

GOLDEN_SHA256 = {
    "table1": "c465593765dc9297f724ad9834eaf48b5647e99895f8fa5f195eed8b7d73d1b2",
    "table2": "955f8fe7d42a65ebe781621613ad151fc855c2e954642892b7ec06a44de66724",
    "fig1": "c71c5ec13316a4a6f852e66470114c9ce7077d41161fbf602d4809f25eab4245",
    "fig2": "7069ff1096fa09d22f23c7aa019f15f7e0d49cf2d069db8c5a7df6338b1f9b2b",
    "fig3": "9a683c6472780a523ae6b5d582aefbe2c631f053afcec06db864c580225f09c6",
    "fig4": "285245c03fd225a2de3d330ca3904be3edb222c26d2edcae838c2539e12fffa6",
    "fig5": "32249d06f678389cfcfc18720b867f0e94518b804d2e61b296d5a3f039150169",
}


def suite_csv_bytes(suite):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(run_suite(suite, SEED, scale=SCALE))
    return buf.getvalue().encode()


@pytest.mark.parametrize("suite", sorted(GOLDEN_SHA256))
def test_suite_csv_bytes_unchanged(suite):
    digest = hashlib.sha256(suite_csv_bytes(suite)).hexdigest()
    assert digest == GOLDEN_SHA256[suite]
