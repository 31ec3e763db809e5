"""The layer benchmark, ``benchmarks/layers.py``, runs on the harness's own
groups and blocks: a change to the names it reads breaks this test too."""

import importlib.util
import math
import os

from pwreject import distributions, simulation
from pwreject.models import MODELS

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "benchmarks", "layers.py")
_SPEC = importlib.util.spec_from_file_location("layers", _PATH)
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_block_decisions_equal_per_dataset_tests_at_perfbench_scale():
    groups = list(layers.groups(0, "perfbench"))
    assert {configs[0].model for _, configs, _ in groups} == set(MODELS)
    differ = [(suite, simulation._decision_key(configs[0])) for suite, configs, rows in groups
              if not layers.decisions_agree(configs, simulation._stack(configs, 0, rows))]
    assert differ == []


def test_every_call_site_holds_its_distributions_function():
    # A function that leaves a module (or moves to another) breaks the
    # spies of the kernels section; this makes it break tier-1 as well.
    stale = [(module.__name__, name) for module, name in layers.CALL_SITES
             if getattr(module, name, None) is not getattr(distributions, name)]
    assert stale == []


def test_closest_call_is_finite_on_every_perfbench_group():
    # The census of how near each method's rows come to their cut: a
    # distance per method of the group's model, finite (a NaN or an empty
    # block would read inf or raise).
    for suite, configs, rows in layers.groups(0, "perfbench"):
        calls = layers.closest_call(configs[0], simulation._stack(configs, 0, rows))
        assert list(calls) == list(configs[0].methods), suite
        assert all(0.0 <= value < math.inf for value in calls.values()), (suite, calls)


def test_confreg_rows_are_finite():
    rows = layers.confreg_rows(0, 1)
    assert [row["rows"] for row in rows] == list(layers.CSV_ROWS)
    assert all(0.0 < row[key] < math.inf for row in rows for key in ("us_per_call", "peak_mb"))
