"""Check that ``run_suite`` rows are byte-identical to a parent revision's.

The same 49 calls run on both sides: the seven suites at master seeds 0, 1
and 2 with scales 0.01 and 0.05, and at seed 7 with scale 0.2.  The parent
side runs from a ``git archive`` of ``REV`` unpacked under ``TMPDIR``, the
change side in this checkout; each side is one child process that imports
``pwreject`` from its own ``src``, and the two run at the same time.  Every
row that differs is printed with both versions; the exit status is 1 on
any difference and 0 when all 49 calls match.  The unpacked tree is
removed afterwards, also when a side fails, and nothing is registered
under ``.git``.

    python3 benchmarks/row_identity.py HEAD~1
"""

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SUITES = ("table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5")
CALLS = [(suite, seed, scale)
         for seed, scales in ((0, (0.01, 0.05)), (1, (0.01, 0.05)), (2, (0.01, 0.05)), (7, (0.2,)))
         for scale in scales
         for suite in SUITES]

# Run in each child: one JSON line per call, each row dumped with sorted keys.
CHILD = """
import json, sys
from pwreject.simulation import run_suite
for suite, seed, scale in json.loads(sys.argv[1]):
    rows = [json.dumps(row, sort_keys=True) for row in run_suite(suite, seed, scale)]
    print(json.dumps([suite, seed, scale, rows]), flush=True)
"""


def start_side(tree):
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen([sys.executable, "-c", CHILD, json.dumps(CALLS)], cwd=tree, env=env,
                            stdout=subprocess.PIPE, text=True)


def collect(proc, side):
    out, _ = proc.communicate()
    if proc.returncode:
        sys.exit("row_identity: the %s side exited with status %d" % (side, proc.returncode))
    return {(suite, seed, scale): rows
            for suite, seed, scale, rows in map(json.loads, out.splitlines())}


def differences(parent, change):
    """One entry per call whose row count differs, and per row that differs."""
    lines = []
    for call in CALLS:
        old, new = parent[call], change[call]
        if len(old) != len(new):
            lines.append("%s seed %d scale %g: %d rows against %d" % (call + (len(old), len(new))))
        for idx, (a, b) in enumerate(zip(old, new)):
            if a != b:
                lines.append("%s seed %d scale %g row %d\n  parent: %s\n  change: %s"
                             % (call + (idx, a, b)))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="parent revision, e.g. HEAD~1 or a commit hash")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="row_identity_") as tmp:
        tree = os.path.join(tmp, "parent")
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.rev + "^{commit}"],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        sides = {}
        try:
            sides = {"parent": start_side(tree), "change": start_side(ROOT)}
            parent, change = [collect(proc, side) for side, proc in sides.items()]
        finally:
            for proc in sides.values():
                proc.kill()
                proc.wait()
    lines = differences(parent, change)
    for line in lines:
        print(line)
    same = sum(parent[call] == change[call] for call in CALLS)
    print("%d/%d run_suite calls byte-identical to %s" % (same, len(CALLS), args.rev))
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
