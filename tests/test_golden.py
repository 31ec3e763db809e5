"""Golden bytes: suite CSVs at a fixed seed and scale, and CLI output on
fixed datasets, must not change.

The digests were computed once from the CSV that ``pwreject simulate``
writes (``CSV_COLUMNS`` header, ``\\n`` line ends) and are never
regenerated: a change that alters a single replicate decision, a draw or
the float formatting of a rate fails here.
"""

import csv
import hashlib
import io

import numpy as np
import pytest

from pwreject.cli import main
from pwreject.distributions import RngStream
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


# --- CLI bytes -------------------------------------------------------------
#
# The stdout of ``pwreject test`` (text format) for each model and of
# ``pwreject confreg`` on fixed generated datasets, one digest per group.
# Like the suite digests, they were computed once and are never regenerated.

CLI_SIZES = (6, 40, 1000)
CLI_SEEDS = (0, 1, 2)

CLI_SHA256 = {
    "ball": "f93d8bde8133c8cc48e127f431c23d99b114e7d8d718478be85c17fcdbae446e",
    "confreg": "8360a47ddef08feda6af0f2e1d9f6edbec23b51a8c46305ce64fa3bc8e257e29",
    "interval": "5880e59333b659458ff36ffad93c02dc0ce5c734003d9c5f471e296231f2baa3",
    "nuisance": "2b5ff489c194766d4458ebd47ab7a4d8ad427e71ebd60ddf64eba6de6289fd5e",
    "or_null": "79fe24ab8265c16560cd13d4860759184a74e7e71c23eff7ecad969c1dff15cb",
}


def _cli_columns(model, seed, n):
    """Header and (n, k) rows of one generated dataset."""
    g = RngStream(seed).generator
    if model == "interval":
        return ["y"], (0.4 * seed + g.standard_normal(n))[:, None]
    if model == "or_null":
        x1, x2 = g.standard_normal((2, n))
        b1, b2 = ((0.3, 0.3), (1.0, 0.4), (0.1, 0.15))[seed]
        return ["x1", "x2", "y"], np.column_stack([x1, x2, b1 * x1 + b2 * x2 + g.standard_normal(n)])
    if model == "nuisance":
        x = g.standard_normal(n)
        psi, phi = ((1.0, 2.0), (0.7, -1.5), (1.3, 2.5))[seed]
        return ["x", "y"], np.column_stack([x, psi * phi * x + psi * phi * phi + g.standard_normal(n)])
    head = (0.6, 1.0, 1.3)[seed]
    rows = np.array([head, 0.0, 0.0, 0.1 * seed, 0.0]) + g.standard_normal((n, 5))
    return ["y1", "y2", "y3", "y4", "y5"], rows


def _cli_commands(model, path):
    if model == "confreg":
        return [["confreg", "--data", path],
                ["confreg", "--data", path, "--alpha", "0.1", "--m", "7", "--width", "10"]]
    base = ["test", "--model", model, "--data", path]
    extra = {
        "interval": [["--a", "-0.5", "--b", "0.5"]],
        "or_null": [["--m-prime", "5", "--alpha", "0.1"]],
        "nuisance": [["--psi0", "1.4", "--m", "20"]],
        "ball": [["--alpha", "0.01"]],
    }[model]
    return [base] + [base + args for args in extra]


@pytest.mark.parametrize("group", sorted(CLI_SHA256))
def test_cli_stdout_bytes_unchanged(group, tmp_path, capsys):
    # Every command of the group on every generated dataset, stdout concatenated.
    model = "nuisance" if group == "confreg" else group
    out = []
    for seed in CLI_SEEDS:
        for n in CLI_SIZES:
            header, rows = _cli_columns(model, seed, n)
            path = str(tmp_path / ("%s-%d-%d.csv" % (model, seed, n)))
            np.savetxt(path, rows, delimiter=",", fmt="%.17g", header=",".join(header), comments="")
            for argv in _cli_commands(group, path):
                assert main(argv) == 0
                out.append(capsys.readouterr().out)
    digest = hashlib.sha256("".join(out).encode()).hexdigest()
    assert digest == CLI_SHA256[group]
