"""CLI: argument handling, output formats, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pwreject import cli, simulation
from pwreject.alpha_prime import NullSpec, alpha_prime
from pwreject.cli import CliError, _load_columns, build_parser, main
from pwreject.distributions import RngStream
from pwreject.models import MODELS, linear_or, mvn_ball, normal_mean, nuisance


def run_cli(args, **kwargs):
    """``python -m pwreject.cli args`` in a child process that imports this pwreject."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "pwreject.cli", *args], env=env, **kwargs)


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    return str(path)


@pytest.fixture
def interval_csv(tmp_path):
    vals = 2.5 + RngStream(1).generator.standard_normal(20)
    return write_csv(tmp_path / "iv.csv", ["y"], [[v] for v in vals])


@pytest.fixture
def nuisance_csv(tmp_path):
    g = RngStream(2).generator
    x = g.standard_normal(25)
    y = 2.0 * x + 4.0 + 0.5 * g.standard_normal(25)
    return write_csv(tmp_path / "nu.csv", ["x", "y"], list(zip(x, y)))


def every_model_csv(tmp_path):
    """A small dataset file per model, keyed by the model name."""
    g = RngStream(3).generator
    n = 12
    x = g.standard_normal((n, 2))
    datasets = {
        "interval": (["y"], g.standard_normal((n, 1))),
        "or_null": (["x1", "x2", "y"],
                    np.column_stack([x, x @ [1.0, 2.0] + g.standard_normal(n)])),
        "nuisance": (["x", "y"],
                     np.column_stack([x[:, 0], 2.0 * x[:, 0] + 4.0 + g.standard_normal(n)])),
        "ball": (["y1", "y2", "y3", "y4", "y5"], g.standard_normal((n, 5))),
    }
    return {model: write_csv(tmp_path / (model + ".csv"), header, rows.tolist())
            for model, (header, rows) in datasets.items()}


class TestAlphaPrime:
    def test_value(self, capsys):
        assert main(["alpha-prime", "--alpha", "0.05", "--d1", "2", "--d0", "1"]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(alpha_prime(0.05, NullSpec(2, 1)), abs=1e-10)

    def test_boundary_flag(self, capsys):
        assert main([
            "alpha-prime", "--alpha", "0.05", "--d1", "5", "--d0", "3", "--boundary",
        ]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.2173, abs=5e-4)

    def test_invalid_geometry_exits_2(self, capsys):
        assert main(["alpha-prime", "--alpha", "0.05", "--d1", "2", "--d0", "2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_interval_geometry_doubles_alpha(self, capsys):
        assert main(["alpha-prime", "--alpha", "0.05", "--d1", "1", "--d0", "1", "--boundary"]) == 0
        assert capsys.readouterr().out == "0.1000000000\n"

    @pytest.mark.parametrize("geometry, upper", [
        (["--d1", "2", "--d0", "1"], "1"), (["--d1", "2", "--d0", "2", "--boundary"], "0.5"),
    ])
    def test_alpha_one_exits_2(self, capsys, geometry, upper):
        # alpha = 1 used to print alpha' = 1.0000000000.
        assert main(["alpha-prime", "--alpha", "1", *geometry]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: significance level must lie in (0, %s), got 1.0\n" % upper


class TestTestCommand:
    def test_interval_text_output(self, interval_csv, capsys):
        assert main([
            "test", "--model", "interval", "--data", interval_csv,
            "--a", "0", "--b", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "decision: reject" in out  # true mean 2.5 is far outside [0, 1]

    def test_json_output(self, interval_csv, capsys):
        assert main([
            "test", "--model", "interval", "--data", interval_csv,
            "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "interval"
        assert set(payload) == {"model", "reject", "max_p", "alpha_prime", "n_points"}
        assert payload["alpha_prime"] == pytest.approx(0.1)

    def test_ball_inside_fails_to_reject(self, tmp_path, capsys):
        rows = np.zeros((6, 5)) + 0.01
        path = write_csv(tmp_path / "b.csv", ["y1", "y2", "y3", "y4", "y5"], rows.tolist())
        assert main(["test", "--model", "ball", "--data", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reject"] is False and payload["max_p"] == pytest.approx(1.0)

    def test_overflowing_ball_statistic_rejects(self, tmp_path, capsys):
        # The chi-square statistic overflows to inf; it printed max_p NaN
        # and "reject": false.  The projection of the mean lies on the unit
        # sphere (a head beyond about 1.3e154 was sent to the origin), and
        # no numpy warning is printed (two overflow warnings were).
        rows = np.zeros((4, 5))
        rows[:, 0] = 1e200
        path = write_csv(tmp_path / "b.csv", ["y1", "y2", "y3", "y4", "y5"], rows.tolist())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["test", "--model", "ball", "--data", path, "--format", "json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        payload = json.loads(out)
        assert payload["reject"] is True and payload["max_p"] == 0.0
        heads = np.array([[1e200, 0, 0], [-3e300, 4e300, 0], [1e155, 1e155, 1e155],
                          [0.5, 0, 0], [2.0, 1e-300, 0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            proj = mvn_ball._project_rows_to_null(np.column_stack([heads, np.ones((5, 2))]))
        assert np.array_equal(proj[:, 3:], np.zeros((5, 2)))
        assert np.allclose(np.linalg.norm(proj[[0, 1, 2, 4], :3], axis=1), 1.0, rtol=1e-15, atol=0)
        assert proj[:2, :3].tolist() == [[1.0, 0, 0], [-0.6, 0.8, 0]]
        assert proj[2, :3].tolist() == pytest.approx([3**-0.5] * 3, rel=1e-15)
        # Rows whose squared norm does not overflow keep their bits.
        assert proj[3:, :3].tolist() == [[0.5, 0, 0], [1.0, 5e-301, 0]]

    def test_json_output_every_model(self, tmp_path, capsys):
        for model, path in every_model_csv(tmp_path).items():
            assert main(["test", "--model", model, "--data", path, "--format", "json"]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["model"] == model
            assert isinstance(payload["reject"], bool)
            assert 0.0 <= payload["max_p"] <= 1.0
            assert isinstance(payload["n_points"], int)

    def test_missing_column_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", ["z"], [[1.0], [2.0]])
        assert main(["test", "--model", "interval", "--data", path]) == 2
        assert "missing column" in capsys.readouterr().err

    def test_bad_number_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "bad.csv", ["y"], [[1.0], ["abc"]])
        assert main(["test", "--model", "interval", "--data", path]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["test", "--model", "interval", "--data", "/no/such.csv"]) == 2

    def test_empty_csv_exits_2(self, tmp_path, capsys):
        path = write_csv(tmp_path / "empty.csv", ["y"], [])
        assert main(["test", "--model", "interval", "--data", path]) == 2
        assert "no data rows" in capsys.readouterr().err

    @pytest.mark.parametrize("alpha", ["2", "-1", "0.5"])
    def test_interval_alpha_out_of_range_exits_2(self, interval_csv, capsys, alpha):
        assert main(["test", "--model", "interval", "--data", interval_csv,
                     "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "significance level must lie in" in captured.err

    def test_interval_alpha_message_states_the_legal_set(self, interval_csv, capsys):
        assert main(["test", "--model", "interval", "--data", interval_csv,
                     "--alpha", "0.7"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: significance level must lie in (0, 0.5), got 0.7\n"

    def test_alpha_one_exits_2_for_every_model(self, tmp_path, capsys):
        # alpha = 1 used to reject every dataset, except in the nuisance model.
        upper = {"interval": "0.5", "or_null": "0.5", "nuisance": "1", "ball": "0.5"}
        for model, path in every_model_csv(tmp_path).items():
            assert main(["test", "--model", model, "--data", path, "--alpha", "1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == ("error: significance level must lie in (0, %s), got 1.0\n"
                                    % upper[model])

    @pytest.mark.parametrize("model, option, message", [
        ("interval", "--a", "interval endpoints must not be nan"),
        ("interval", "--b", "interval endpoints must not be nan"),
        ("nuisance", "--psi0", "psi must be finite"),
    ])
    def test_nan_null_parameter_exits_2(self, request, capsys, model, option, message):
        # These used to exit 0: --b nan printed "max_p": NaN (not JSON), --a
        # nan tested against b alone, --psi0 nan failed to reject.
        data = request.getfixturevalue(model + "_csv")
        assert main(["test", "--model", model, "--data", data, option, "nan",
                     "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, bad):
        path = write_csv(tmp_path / "nonfinite.csv", ["y"], [[1.0], [bad], [2.0]])
        assert main(["test", "--model", "interval", "--data", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err and path in captured.err


# Harness settings whose pointwise test is the CLI's default one: interval
# [0, 1], or_null m' = 50, nuisance psi0 = 1 with m = 100, ball; alpha 0.05.
HARNESS_SETTINGS = {
    "interval": dict(truth=(2.0,), m=0),
    "or_null": dict(truth=(1.0, 1.0), m=100),
    "nuisance": dict(truth=(2.0, 2.0), m=100),
    "ball": dict(truth=(2.0, 0.5, 0.0, 0.0, 0.0), m=1),
}


def one_dataset_test(model, cols):
    """The model's pointwise test at the CLI defaults on data columns ``cols``
    (for ball, the five columns or one (n, 5) array)."""
    if model == "interval":
        return normal_mean.interval_null_test(normal_mean.UnivariateSample(cols[0]), 0.0, 1.0, 0.05)
    if model == "or_null":
        return linear_or.or_null_test(linear_or.RegressionData(*cols), 0.05, 50)
    if model == "nuisance":
        return nuisance.psi_pointwise_test(nuisance.XYData(*cols), 1.0, 0.05, 100)
    return mvn_ball.ball_pointwise_test(mvn_ball.MvnSample(np.column_stack(cols)), 0.05)


@pytest.mark.parametrize("model", sorted(HARNESS_SETTINGS))
def test_harness_replicate_is_a_cli_input(model, tmp_path, capsys):
    # Row 0 of a harness block, written under the model's CLI columns, is
    # read back as the same arrays and decided as the harness decides it
    # (interval, nuisance and ball reject here, or_null does not).
    cfg = simulation.ExperimentConfig(model=model, mode="type1", n=9, replicates=1,
                                      master_seed=11, **HARNESS_SETTINGS[model])
    stacked = simulation._stack([cfg], 0, 1)
    replicate = [column[0] for column in stacked]
    rows = np.column_stack(replicate)
    path = write_csv(tmp_path / "replicate.csv", MODELS[model].columns, rows.tolist())
    assert np.array_equal(np.column_stack(_load_columns(path, MODELS[model].columns)), rows)
    assert main(["test", "--model", model, "--data", path, "--format", "json"]) == 0
    decision = one_dataset_test(model, replicate)
    assert json.loads(capsys.readouterr().out) == {
        "model": model,
        "reject": decision.reject,
        "max_p": decision.max_p,
        "alpha_prime": decision.alpha_prime_used,
        "n_points": decision.n_points,
    }
    hits = simulation._decide(cfg, stacked)[0]
    assert bool(hits[0][0]) == decision.reject


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return str(path)


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


class TestLoader:
    """``_load_columns``: the accepted CSV format and its exit-2 cases."""

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=40))
    def test_round_trip_is_bit_identical_to_float(self, tmp_path_factory, values):
        directory = tmp_path_factory.mktemp("roundtrip")
        for fmt in (repr, "%.17g".__mod__):
            texts = [fmt(v) for v in values]
            path = write_text(directory / "y.csv", "y\n" + "\n".join(texts) + "\n")
            (col,) = _load_columns(path, ("y",))
            assert bits(col) == bits([float(t) for t in texts])

    def test_columns_picked_by_name(self, tmp_path):
        path = write_text(tmp_path / "nu.csv", "note,y,extra,x\n7,1.5,8,-2\n9,2.5,10,-3\n")
        x, y = _load_columns(path, ("x", "y"))
        assert x.tolist() == [-2.0, -3.0] and y.tolist() == [1.5, 2.5]

    def test_quotes_crlf_and_blank_lines(self, tmp_path):
        path = write_text(tmp_path / "q.csv", '"x","y"\r\n"1.25",2\r\n\r\n3,"-4e-3"\r\n\n')
        x, y = _load_columns(path, ("x", "y"))
        assert x.tolist() == [1.25, 3.0] and y.tolist() == [2.0, -4e-3]

    def test_one_row_keeps_its_shape(self, tmp_path):
        path = write_text(tmp_path / "one.csv", "y1,y2,y3,y4,y5\n1,2,3,4,5\n")
        cols = _load_columns(path, ("y1", "y2", "y3", "y4", "y5"))
        assert [c.shape for c in cols] == [(1,)] * 5
        assert [c[0] for c in cols] == [1.0, 2.0, 3.0, 4.0, 5.0]
        (y,) = _load_columns(write_text(tmp_path / "cell.csv", "y\n2.5\n"), ("y",))
        assert y.shape == (1,) and y[0] == 2.5

    def test_empty_file_exits_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "empty.csv", "")
        assert main(["test", "--model", "interval", "--data", path]) == 2
        assert "missing column" in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["# a comment", "1_000"])
    def test_comment_line_and_underscore_are_bad_values(self, tmp_path, capsys, cell):
        path = write_text(tmp_path / "bad.csv", "y\n1\n%s\n2\n" % cell)
        assert main(["test", "--model", "interval", "--data", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad numeric value" in captured.err

    def test_short_row_in_used_column_exits_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "short.csv", "x1,x2,y\n1,2,3\n4,5\n6,7,8\n8,9,1\n2,3,4\n")
        assert main(["test", "--model", "or_null", "--data", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err and path in captured.err

    def test_short_row_in_unused_column_is_accepted(self, tmp_path):
        path = write_text(tmp_path / "short.csv", "y,note\n1,a\n2\n3,b\n")
        (y,) = _load_columns(path, ("y",))
        assert y.tolist() == [1.0, 2.0, 3.0]

    def test_duplicated_required_column_exits_2(self, tmp_path, capsys):
        path = write_text(tmp_path / "dup.csv", "x,y,y\n1,2,3\n4,5,6\n")
        with pytest.raises(CliError, match="duplicate column"):
            _load_columns(path, ("x", "y"))
        assert main(["confreg", "--data", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "duplicate column(s) y in " + path in captured.err

    def test_duplicated_unused_column_is_allowed(self, tmp_path):
        path = write_text(tmp_path / "dup.csv", "note,y,note\na,1,b\nc,2,d\n")
        (y,) = _load_columns(path, ("y",))
        assert y.tolist() == [1.0, 2.0]


class TestParserReuse:
    """``main`` parses every call with one parser; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_format_does_not_stick(self, interval_csv, capsys):
        argv = ["test", "--model", "interval", "--data", interval_csv]
        assert main(argv + ["--format", "json"]) == 0
        json.loads(capsys.readouterr().out)
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("decision: ")

    def test_option_value_does_not_become_the_default(self, nuisance_csv, capsys):
        assert main(["confreg", "--data", nuisance_csv, "--m", "50"]) == 0
        with_default_m = capsys.readouterr().out
        assert main(["confreg", "--data", nuisance_csv, "--m", "7"]) == 0
        capsys.readouterr()
        assert main(["confreg", "--data", nuisance_csv]) == 0
        assert capsys.readouterr().out == with_default_m
        assert build_parser().parse_args(["confreg", "--data", nuisance_csv]).m == 50


class TestConfreg:
    def test_region_contains_truth(self, nuisance_csv, capsys):
        assert main(["confreg", "--data", nuisance_csv]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "lo,hi"
        intervals = [tuple(map(float, line.split(","))) for line in out[1:]]
        assert any(lo <= 1.0 <= hi for lo, hi in intervals)

    def test_json_format_to_file(self, nuisance_csv, tmp_path, capsys):
        out_path = str(tmp_path / "region.json")
        assert main([
            "confreg", "--data", nuisance_csv, "--format", "json", "--out", out_path,
        ]) == 0
        with open(out_path) as fh:
            intervals = json.load(fh)
        assert intervals and all(len(iv) == 2 for iv in intervals)

    def test_alpha_one_exits_2_with_the_level_message(self, nuisance_csv, capsys):
        # It used to say "probability must lie in (0, 1), got 0.0".
        assert main(["confreg", "--data", nuisance_csv, "--alpha", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: significance level must lie in (0, 1), got 1.0\n"

    @pytest.mark.parametrize("width", ["nan", "inf", "0", "-5"])
    def test_bad_window_width_exits_2(self, nuisance_csv, capsys, width):
        # A nan or infinite width used to print the empty region and exit 0.
        assert main(["confreg", "--data", nuisance_csv, "--width=" + width]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "proxy window width must be positive and finite" in captured.err

    def test_unwritable_out_exits_2(self, nuisance_csv, tmp_path, capsys):
        out_path = str(tmp_path / "no" / "such" / "region.csv")
        assert main(["confreg", "--data", nuisance_csv, "--out", out_path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out_path in captured.err


class TestSimulate:
    def run_simulate(self, tmp_path, name):
        out = str(tmp_path / name)
        run_cli(["simulate", "--suite", "fig1", "--seed", "9", "--scale", "0.003", "--out", out],
                check=True)
        with open(out, "rb") as fh:
            return fh.read()

    def test_byte_identical_across_runs(self, tmp_path):
        a = self.run_simulate(tmp_path, "a.csv")
        b = self.run_simulate(tmp_path, "b.csv")
        assert a == b
        header = a.decode().splitlines()[0]
        assert header == "suite,model,truth,n,m,method,rate,margin,replicates,seed"

    def test_stdout_csv(self, capsys):
        assert main(["simulate", "--suite", "table2", "--scale", "0.0005"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 15  # header + 5 settings x 3 methods

    def test_stdout_json_is_the_run_suite_rows(self, capsys):
        argv = ["simulate", "--suite", "table1", "--seed", "3", "--scale", "0.0005",
                "--format", "json"]
        assert main(argv) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 10
        assert rows == simulation.run_suite("table1", 3, 0.0005)

    def test_bad_scale_exits_2(self, capsys):
        assert main(["simulate", "--suite", "table1", "--scale", "0"]) == 2

    @pytest.mark.parametrize("option,value", [
        pytest.param("--scale", scale, id=scale) for scale in ("1e-9", "-1", "nan", "inf")
    ] + [pytest.param("--seed", "-1", id="seed=-1")])
    def test_bad_scale_leaves_out_untouched(self, tmp_path, capsys, option, value):
        # The usage error used to truncate an existing --out to 0 bytes; a
        # negative seed still did, because only the scale was checked first.
        out = tmp_path / "rows.csv"
        out.write_bytes(b"suite,rate\r\nkept,1\n")
        argv = ["simulate", "--suite", "table1", option, value, "--out", str(out)]
        assert main(argv) == 2
        assert out.read_bytes() == b"suite,rate\r\nkept,1\n"
        assert option[2:] in capsys.readouterr().err

    def test_unwritable_out_exits_2_before_the_suite_runs(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(cli, "run_suite", lambda *args: runs.append(args) or [])
        out_path = str(tmp_path / "no" / "such" / "rows.csv")
        assert main(["simulate", "--suite", "fig3", "--out", out_path]) == 2
        assert runs == []
        assert out_path in capsys.readouterr().err

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--suite", "nope"])
        assert exc.value.code == 2


def test_console_script_help():
    proc = run_cli(["--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "alpha-prime" in proc.stdout
