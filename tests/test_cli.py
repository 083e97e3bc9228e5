"""Command-line front end: exit codes, report payloads, CSV contract.

Commands run in-process through cli.main(argv) so exit codes and outputs
are captured exactly; subprocess tests cover the installed script and the
modules a fresh interpreter loads.
"""

import csv
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from priordp import (
    GaussianModel,
    QuerySpec,
    cli,
    distribution_to_json,
    full_space_search,
    gen_discrete_corr,
    global_sensitivity,
    leakage_gaussian,
    load_gaussian_model,
    max_leakage_gaussian,
    model_gaussian,
    oracle,
    pdp_exact_all,
    pdp_numeric_gaussian,
    whg,
)
from priordp.cli import main

from conftest import (
    CELLS_A,
    DIAGONAL_TABLE_3,
    LEAK_A_WEAK,
    ONE_VALUE_TABLE,
    ZERO_COEF_TABLE,
    random_instance,
)

# n=3 instance whose exact weak-node leakage exceeds the chain value
# (output-space supremum at an interior kink; see the graph module notes)
GAP_DOMAINS = [
    [0.10349, 1.054202],
    [0.478443, 0.675144, 1.470922],
    [0.096648, 0.162482, 0.275522],
]
GAP_PROBS = [
    [[0.100398, 0.063861, 0.026383],
     [0.009052, 0.017902, 0.092856],
     [0.020024, 0.010434, 0.042519]],
    [[0.097272, 0.067118, 0.069631],
     [0.010166, 0.144402, 0.008741],
     [0.143384, 0.034375, 0.041481]],
]


@pytest.fixture
def table_a_file(tmp_path):
    path = tmp_path / "table_a.json"
    path.write_text(json.dumps({"domains": [[0, 1], [0, 1]], "probs": CELLS_A}))
    return str(path)


@pytest.fixture
def gauss_file(tmp_path):
    path = tmp_path / "gauss.json"
    model = {
        "mu": [0.0, 0.0],
        "sigma": [[1.0, 0.5], [0.5, 1.0]],
        "M": 1.0,
        "lambda": 1.0,
    }
    path.write_text(json.dumps(model))
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestAnalyzeDiscrete:
    def test_full_search_report(self, table_a_file, tmp_path, capsys):
        out = tmp_path / "rep.json"
        rc = main(["analyze-discrete", table_a_file, "--out", str(out)])
        assert rc == 0
        rep = read_json(out)
        assert rep["leakage"] == pytest.approx(LEAK_A_WEAK, abs=1e-9)
        assert rep["algorithm"] == "full"
        assert rep["invocation"].startswith("priordp analyze-discrete")
        assert capsys.readouterr().out == ""

    def test_fast_mode_stdout(self, table_a_file, capsys):
        rc = main(["analyze-discrete", table_a_file, "--mode", "fast"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["algorithm"] == "fast"
        assert rep["leakage"] == pytest.approx(LEAK_A_WEAK, abs=1e-9)

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["analyze-discrete", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_length_mismatch(self, table_a_file, capsys):
        rc = main(["analyze-discrete", table_a_file, "--query", "1,2,3"])
        assert rc == 2
        assert "coefficients" in capsys.readouterr().err

    def test_size_cap(self, tmp_path, capsys):
        n = 16
        big = {
            "domains": [[0, 1]] * n,
            "probs": np.full((2,) * n, 2.0**-n).tolist(),
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(big))
        assert main(["analyze-discrete", str(path)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("lam", ["nan", "inf", "0"])
    def test_bad_lambda(self, table_a_file, tmp_path, capsys, lam):
        out = tmp_path / "rep.json"
        argv = ["analyze-discrete", table_a_file, "--lambda", lam, "--out", str(out)]
        assert main(argv) == 2
        assert "--lambda" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze-discrete", "oracle-check"])
    def test_overflowing_lambda(self, table_a_file, tmp_path, capsys, command):
        # LS_i / lambda is infinite at 5e-324, and an infinite node is never
        # expanded: the search would drop its ancestors
        out = tmp_path / "out.json"
        assert main([command, table_a_file, "--lambda", "5e-324", "--out", str(out)]) == 2
        assert "too small" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, table_a_file, "--lambda", "2e-308", "--out", str(out)]) == 0
        rep = read_json(out)
        if command == "analyze-discrete":
            assert rep["node_count"] == 4
        else:
            assert len(rep["rows"]) == 4 and all(r["pass"] for r in rep["rows"])

    @pytest.mark.parametrize("command", ["analyze-discrete", "oracle-check"])
    def test_chain_and_oracle_share_the_noise_floor(self, tmp_path, capsys, command):
        # LS_i / lambda and each domain value / lambda are 1e308, but the
        # largest query sum, 3, over lambda overflows: both commands refuse
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(distribution_to_json(gen_discrete_corr(3, 0.5, 2, seed=1))))
        assert main([command, str(path), "--lambda", "1e-308"]) == 2
        assert "too small" in capsys.readouterr().err

    def test_no_tuples(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"domains": [], "probs": [1.0]}))
        assert main(["analyze-discrete", str(path)]) == 2
        assert "at least one tuple" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["analyze-discrete", "oracle-check"])
    def test_overflowing_domain_quotient(self, tmp_path, capsys, command):
        # LS_i / lambda is 1e305, but 100001 / lambda overflows: the search
        # would drop a node, and oracle-check would report a missing row
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"domains": [[100000, 100001], [0, 1]],
                                    "probs": [0.3, 0.2, 0.2, 0.3]}))
        out = tmp_path / "out.json"
        assert main([command, str(path), "--lambda", "1e-305", "--out", str(out)]) == 2
        assert "too small" in capsys.readouterr().err
        assert not out.exists()
        assert main([command, str(path), "--out", str(out)]) == 0
        rep = read_json(out)
        if command == "analyze-discrete":
            assert rep["node_count"] == 4
        else:
            assert len(rep["rows"]) == 4 and all(r["pass"] for r in rep["rows"])


class TestNonFiniteInputs:
    """A NaN or infinity in an input file or a --query coefficient is a
    validation error (exit 2), never a report."""

    @pytest.mark.parametrize("command", ["analyze-discrete", "oracle-check"])
    def test_query_coefficient(self, table_a_file, tmp_path, capsys, command):
        out = tmp_path / "rep.json"
        assert main([command, table_a_file, "--query", "1,nan", "--out", str(out)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_domain_value(self, tmp_path, capsys, bad):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"domains": [[0, bad], [0, 1]], "probs": CELLS_A}))
        assert main(["analyze-discrete", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key, value",
        [
            (["analyze-gaussian", "--all"], "lambda", float("nan")),
            (["analyze-gaussian", "--all"], "sigma", [[1.0, float("nan")], [float("nan"), 1.0]]),
            (["calibrate", "--epsilon", "1"], "M", float("inf")),
        ],
    )
    def test_gaussian_model(self, tmp_path, capsys, argv, key, value):
        model = {"mu": [0.0, 0.0], "sigma": [[1.0, 0.5], [0.5, 1.0]], "M": 1.0, "lambda": 1.0}
        model[key] = value
        path = tmp_path / "g.json"
        path.write_text(json.dumps(model))
        assert main(argv[:1] + [str(path)] + argv[1:]) == 2
        assert "finite" in capsys.readouterr().err


class TestAnalyzeGaussian:
    def test_single_adversary(self, gauss_file, capsys):
        rc = main(["analyze-gaussian", gauss_file, "--adversary", "0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["leakage"] == pytest.approx(1.5, abs=1e-12)
        assert rep["K"] == []

    def test_all_adversaries(self, tmp_path, capsys):
        model = {"mu": [0, 0, 0], "sigma": np.eye(3).tolist(), "M": 2, "lambda": 4}
        path = tmp_path / "id.json"
        path.write_text(json.dumps(model))
        rc = main(["analyze-gaussian", str(path), "--all"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["leakage"] == pytest.approx(0.5, abs=1e-12)
        assert rep["node_count"] == 12

    def test_flag_exclusivity(self, gauss_file, capsys):
        assert main(["analyze-gaussian", gauss_file]) == 2
        rc = main(
            ["analyze-gaussian", gauss_file, "--adversary", "0", "--all"]
        )
        assert rc == 2
        assert "exactly one" in capsys.readouterr().err

    def test_bad_adversary(self, gauss_file, capsys):
        assert main(["analyze-gaussian", gauss_file, "--adversary", "5"]) == 2
        assert main(["analyze-gaussian", gauss_file, "--adversary", "0,0"]) == 2

    def test_repeated_prior_index(self, tmp_path, capsys):
        # K = {1} written twice would echo "K": [1, 1]
        model = {"mu": [0.0] * 3, "sigma": np.eye(3).tolist(), "M": 1.0, "lambda": 1.0}
        path = tmp_path / "three.json"
        path.write_text(json.dumps(model))
        assert main(["analyze-gaussian", str(path), "--adversary", "0,1,1"]) == 2
        assert "distinct" in capsys.readouterr().err
        assert main(["analyze-gaussian", str(path), "--adversary", "0,2,1"]) == 0
        assert json.loads(capsys.readouterr().out)["K"] == [1, 2]


    @pytest.mark.parametrize("command", [["analyze-gaussian", "--all"], ["oracle-check"]])
    def test_overflowing_scale(self, tmp_path, capsys, command):
        # M / lambda = 1e310 would print "leakage": Infinity, which is not JSON
        model = {"mu": [0, 0], "sigma": [[1, 0.5], [0.5, 1]], "M": 1e300, "lambda": 1e-10}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(model))
        assert main([command[0], str(path)] + command[1:]) == 2
        assert "M / lambda overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["analyze-gaussian", "--all"],
                                         ["analyze-gaussian", "--adversary", "0"],
                                         ["oracle-check"]])
    def test_overflowing_leakage(self, tmp_path, capsys, command):
        # M / lambda = 1e308 is finite, but |1 + mu0i| = 101 at (0, ()) takes
        # the leakage past the largest float: no command prints Infinity
        model = {"mu": [0, 0], "sigma": [[1, 100], [100, 10000.01]], "M": 1e307, "lambda": 0.1}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(model))
        assert main([command[0], str(path)] + command[1:]) == 2
        assert "adversary (i=0, K=[]) overflows" in capsys.readouterr().err
        # (1, ()) has |1 + mu0i| just above 1, and its leakage is finite
        assert main(["analyze-gaussian", str(path), "--adversary", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["leakage"] < math.inf


class TestOracleCheck:
    def test_discrete_pass(self, table_a_file, capsys):
        rc = main(["oracle-check", table_a_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "4/4 adversaries pass" in out
        # on a table --lambda is taken, and 1 is its default
        assert main(["oracle-check", table_a_file, "--lambda", "1"]) == 0
        assert capsys.readouterr().out == out

    @pytest.mark.parametrize("table, query", [
        (ZERO_COEF_TABLE, ["--query", "0,1"]),
        (ONE_VALUE_TABLE, []),
    ], ids=["zero-coefficient", "one-value"])
    def test_degenerate_tuple_checks_every_adversary(self, table, query, tmp_path, capsys):
        path = tmp_path / "table.json"
        path.write_text(json.dumps(table))
        assert main(["oracle-check", str(path), *query]) == 0
        out = capsys.readouterr().out
        assert "4/4 adversaries pass" in out
        assert "missing" not in out

    def test_starved_adversaries_reported_missing(self, tmp_path, capsys):
        # README's first caveat: the chain drops every adversary that only
        # edges with no feasible hypothesis pair reach, and oracle-check
        # fails their rows
        path = tmp_path / "table.json"
        path.write_text(json.dumps(DIAGONAL_TABLE_3))
        assert main(["oracle-check", str(path)]) == 4
        out = capsys.readouterr().out
        assert out.count("missing") == 9
        assert "3/12 adversaries pass" in out

    def test_discrete_witness(self, table_a_file, tmp_path, capsys):
        out = tmp_path / "check.json"
        assert main(["oracle-check", table_a_file, "--out", str(out)]) == 0
        rows = {(r["i"], tuple(r["K"])): r for r in read_json(out)["rows"]}
        # both suprema of table A sit at the outermost kink r = 0, and hold
        # on the whole ray r <= 0
        assert rows[(0, ())]["witness"] == "tail"
        assert rows[(0, (1,))]["witness"] == "tail"
        assert {r["witness"] for r in rows.values()} == {"tail"}
        assert "0 interior suprema" in capsys.readouterr().out

    def test_discrete_gap_detected(self, tmp_path, capsys):
        probs = np.asarray(GAP_PROBS)
        probs /= probs.sum()
        path = tmp_path / "gap.json"
        path.write_text(
            json.dumps({"domains": GAP_DOMAINS, "probs": probs.tolist()})
        )
        rc = main(["oracle-check", str(path)])
        assert rc == 4
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_rounding_alone_passes(self, tmp_path, capsys):
        # at lambda 1e-8 this table's values reach 1e8 nats, where one ulp
        # (1.5e-8) exceeds the default tolerance; at lambda 1 its chain
        # misses the exact leakage by 0.05 nats
        path = tmp_path / "t.json"
        path.write_text(json.dumps(distribution_to_json(gen_discrete_corr(3, 0.5, 2, seed=0))))
        assert main(["oracle-check", str(path), "--lambda", "1e-8"]) == 0
        assert "12/12 adversaries pass" in capsys.readouterr().out
        assert main(["oracle-check", str(path), "--lambda", "1"]) == 4
        assert "FAIL" in capsys.readouterr().out

    def test_gaussian_pass(self, gauss_file, tmp_path, capsys):
        out = tmp_path / "check.json"
        rc = main(["oracle-check", gauss_file, "--out", str(out)])
        assert rc == 0
        assert "4/4 adversaries pass" in capsys.readouterr().out
        rows = read_json(out)["rows"]
        assert len(rows) == 4 and all(r["pass"] for r in rows)

    def test_gaussian_one_expansion_per_adversary(self, gauss_file, tmp_path, monkeypatch, capsys):
        out = tmp_path / "check.json"
        assert main(["oracle-check", gauss_file, "--out", str(out)]) == 0
        rows = read_json(out)["rows"]
        calls = []

        def counted(model, i, K):
            calls.append((i, tuple(K)))
            return expand(model, i, K)

        expand = model_gaussian.mu0_expand
        monkeypatch.setattr(model_gaussian, "mu0_expand", counted)
        monkeypatch.setattr(oracle, "mu0_expand", counted)
        again = tmp_path / "again.json"
        assert main(["oracle-check", gauss_file, "--out", str(again)]) == 0
        capsys.readouterr()
        assert sorted(calls) == sorted((r["i"], tuple(r["K"])) for r in rows)
        assert read_json(again)["rows"] == rows

    def test_cap(self, tmp_path, capsys):
        model = {"mu": [0.0] * 9, "sigma": np.eye(9).tolist(), "M": 1, "lambda": 1}
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(model))
        assert main(["oracle-check", str(path)]) == 3

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-9"])
    def test_bad_tolerance(self, table_a_file, tmp_path, capsys, value):
        out = tmp_path / "check.json"
        # the = form: argparse would read a separate "-inf" as an option
        rc = main(["oracle-check", table_a_file, f"--tolerance={value}", "--out", str(out)])
        assert rc == 2
        assert "--tolerance must be non-negative and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_tolerance_accepted(self, gauss_file, capsys):
        rc = main(["oracle-check", gauss_file, "--tolerance", "0"])
        assert rc in (0, 4)
        assert "(tol 0)" in capsys.readouterr().out


class TestGaussianOraclePool:
    """Gaussian oracle-check rows run on the worker pool."""

    N = 5

    @pytest.fixture
    def model_file(self, tmp_path):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(self.N, self.N))
        sigma = a @ a.T / self.N + 0.5 * np.eye(self.N)
        model = {"mu": rng.normal(size=self.N).tolist(), "sigma": sigma.tolist(),
                 "M": 1.5, "lambda": 0.8}
        path = tmp_path / "random5.json"
        path.write_text(json.dumps(model))
        return path

    def rows(self, path, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("PDP_THREADS", threads)
        out = tmp_path / f"rows{threads}.json"
        assert main(["oracle-check", str(path), "--out", str(out)]) == 0
        return read_json(out)["rows"]

    def test_rows_same_for_any_pool_size(self, model_file, tmp_path, monkeypatch, capsys):
        one = self.rows(model_file, tmp_path, monkeypatch, "1")
        two = self.rows(model_file, tmp_path, monkeypatch, "2")
        assert len(one) == self.N * 2 ** (self.N - 1)
        assert json.dumps(one) == json.dumps(two)

    def test_rows_match_serial_recomputation(self, model_file, tmp_path, monkeypatch, capsys):
        rows = self.rows(model_file, tmp_path, monkeypatch, "2")
        model = load_gaussian_model(read_json(model_file))
        expected = []
        for i, K in cli._all_adversaries(self.N):
            closed = leakage_gaussian(model, i, K)
            numeric = pdp_numeric_gaussian(model, i, K)
            expected.append({"i": i, "K": list(K), "closed_form": closed, "oracle": numeric,
                             "pass": abs(closed - numeric) <= 1e-3})
        assert rows == expected

    def test_singular_sigma_exits_numeric(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PDP_THREADS", "2")
        path = tmp_path / "ones.json"
        path.write_text(json.dumps({"mu": [0.0] * 4, "sigma": np.ones((4, 4)).tolist(),
                                    "M": 1.0, "lambda": 1.0}))
        out = tmp_path / "check.json"
        assert main(["oracle-check", str(path), "--out", str(out)]) == 4
        assert "conditioning block is singular" in capsys.readouterr().err
        assert not out.exists()


class TestExperiment:
    HEADER = "averCorr,layer,mean_leakage,var_leakage,algorithm,seed_count"

    def run(self, tmp_path, name, args):
        out = tmp_path / name
        rc = main(args + ["--out", str(out)])
        return rc, out

    def test_discrete_sweep_csv(self, tmp_path):
        rc, out = self.run(
            tmp_path,
            "sweep.csv",
            [
                "experiment", "--kind", "discrete", "--n", "8",
                "--averCorr", "0.2,0.8", "--seeds", "3",
            ],
        )
        assert rc == 0
        text = out.read_text()
        assert text.splitlines()[0] == self.HEADER
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        # 2 sweep points x 2 algorithms x 8 layers
        assert len(rows) == 32
        assert {r["algorithm"] for r in rows} == {"full", "fast"}
        assert all(r["seed_count"] == "3" for r in rows)
        for r in rows:
            if r["layer"] == "1":
                # first layer is the fixed strongest-adversary scale
                assert float(r["mean_leakage"]) == pytest.approx(1.0)
                assert float(r["var_leakage"]) == pytest.approx(0.0)

    def test_deterministic_rerun_and_threads(self, tmp_path, monkeypatch):
        args = [
            "experiment", "--kind", "discrete", "--n", "6",
            "--averCorr", "0.5", "--seeds", "2",
        ]
        rc1, out1 = self.run(tmp_path, "a.csv", list(args))
        rc2, out2 = self.run(tmp_path, "b.csv", list(args))
        monkeypatch.setenv("PDP_THREADS", "2")
        rc3, out3 = self.run(tmp_path, "c.csv", list(args))
        assert rc1 == rc2 == rc3 == 0
        assert out1.read_bytes() == out2.read_bytes() == out3.read_bytes()

    def test_gaussian_sweep_values(self, tmp_path):
        rc, out = self.run(
            tmp_path,
            "gauss.csv",
            ["experiment", "--kind", "gaussian", "--n", "4", "--averCorr", "0.5"],
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert all(r["algorithm"] == "enumerate" for r in rows)
        weakest = [r for r in rows if r["layer"] == "4"][0]
        assert float(weakest["mean_leakage"]) == pytest.approx(2.5, abs=1e-12)

    def test_gaussian_size_cap(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "max_leakage_gaussian", lambda *a, **k: calls.append(a))
        rc, out = self.run(
            tmp_path,
            "wide.csv",
            ["experiment", "--kind", "gaussian", "--n", "21", "--averCorr", "0.2"],
        )
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    @pytest.mark.parametrize("extra, rc_want, calls_want", [
        ([], 0, 2),
        (["--seeds", "1"], 0, 2),
        (["--seeds", "3"], 2, 0),
        (["--seeds", "0"], 2, 0),
    ], ids=["default", "seeds1", "seeds3", "seeds0"])
    def test_gaussian_one_enumeration_per_point(self, tmp_path, monkeypatch, capsys,
                                                extra, rc_want, calls_want):
        calls = []

        def counted(model, **kw):
            calls.append(model)
            return max_leakage_gaussian(model, **kw)

        monkeypatch.setattr(cli, "max_leakage_gaussian", counted)
        rc, out = self.run(tmp_path, "g.csv", ["experiment", "--kind", "gaussian", "--n", "4",
                                               "--averCorr", "0.2,0.5", *extra])
        assert rc == rc_want and len(calls) == calls_want
        if rc:
            assert "no seed" in capsys.readouterr().err and not out.exists()

    def test_discrete_size_cap(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli, "search_synthetic", lambda *a, **k: calls.append(a))
        rc, out = self.run(
            tmp_path,
            "wide.csv",
            ["experiment", "--kind", "discrete", "--n", "16", "--averCorr", "0.2"],
        )
        assert rc == 3
        assert "cap" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_gaussian_infeasible_sweep(self, tmp_path, capsys):
        rc, _ = self.run(
            tmp_path,
            "bad.csv",
            ["experiment", "--kind", "gaussian", "--n", "4", "--averCorr", "-0.5"],
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_layer_filter(self, tmp_path):
        rc, out = self.run(
            tmp_path,
            "layers.csv",
            [
                "experiment", "--kind", "discrete", "--n", "6",
                "--averCorr", "0.5", "--seeds", "1", "--layers", "2,3",
            ],
        )
        assert rc == 0
        with open(out, newline="") as fh:
            layers = {r["layer"] for r in csv.DictReader(fh)}
        assert layers == {"2", "3"}

    def test_bad_arguments(self, tmp_path, capsys):
        rc, _ = self.run(
            tmp_path,
            "x.csv",
            ["experiment", "--kind", "discrete", "--n", "6", "--seeds", "0"],
        )
        assert rc == 2
        rc, _ = self.run(
            tmp_path,
            "y.csv",
            [
                "experiment", "--kind", "discrete", "--n", "6",
                "--layers", "9",
            ],
        )
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("kind, flag, value", [
        ("discrete", "--scale", "inf"),
        ("discrete", "--beta-alpha", "nan"),
        ("gaussian", "--scale", "inf"),
        ("gaussian", "--scale", "-1"),
    ])
    def test_bad_numeric_options(self, tmp_path, capsys, kind, flag, value):
        rc, out = self.run(
            tmp_path,
            "bad.csv",
            ["experiment", "--kind", kind, "--n", "4", "--seeds", "1", flag, value],
        )
        assert rc == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_options_removed(self, tmp_path, capsys):
        # --scale is the Gaussian sweep's unit M/lambda; argparse refuses --M
        with pytest.raises(SystemExit) as exc:
            self.run(tmp_path, "m.csv", ["experiment", "--kind", "gaussian", "--n", "4",
                                         "--M", "2"])
        assert exc.value.code == 2
        assert "--M" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, digest", [
        # sha256 of the CSV with default options and with --M 2, before
        # --scale replaced --M and --lambda (numpy 2.4.6, scipy 1.17.1)
        ([], "6c5481fdd8025d234ca31a8027af909e0ce6bc5bcfce78fa06b2fea8b8785157"),
        (["--scale", "2"], "122a871cc23f535c6f9b185fd1b26dd4ced3df3c27bb7abe9577cdbc61ad8839"),
    ], ids=["default", "scale2"])
    def test_gaussian_digest_pinned(self, tmp_path, extra, digest):
        rc, out = self.run(tmp_path, "gauss.csv", ["experiment", "--kind", "gaussian", "--n",
                                                   "5", "--averCorr", "0.2,0.5", *extra])
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_bad_thread_env(self, tmp_path, monkeypatch, capsys):
        for value in ("0", "abc", "1.5"):
            monkeypatch.setenv("PDP_THREADS", value)
            rc, _ = self.run(
                tmp_path,
                "z.csv",
                ["experiment", "--kind", "discrete", "--n", "6", "--seeds", "1"],
            )
            assert rc == 2
            assert "PDP_THREADS must be a positive integer" in capsys.readouterr().err

    def test_csv_digest_pinned(self, tmp_path):
        # sha256 of this sweep's CSV before the search kernel batched its
        # edge-source calls (numpy 2.4.6, scipy 1.17.1); any bit that moves
        # in an edge, a node or a layer maximum changes it
        rc, out = self.run(
            tmp_path,
            "pin.csv",
            [
                "experiment", "--kind", "discrete", "--n", "9",
                "--averCorr=-0.3,0.2,0.8", "--seeds", "2",
            ],
        )
        assert rc == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "334eb3f165fefbbc33dce00e6f192f5d7be2954dc995deb15e85d43e1f081a37"
        )

    def test_negative_sweep_as_separate_argument(self, tmp_path):
        # argparse alone reads "-0.3,0.2" after --averCorr as an option
        base = ["experiment", "--kind", "discrete", "--n", "6", "--seeds", "1"]
        rc1, out1 = self.run(tmp_path, "a.csv", base + ["--averCorr", "-0.3,0.2"])
        rc2, out2 = self.run(tmp_path, "b.csv", base + ["--averCorr=-0.3,0.2"])
        assert rc1 == rc2 == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.delenv("PDP_THREADS", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert cli._workers(6) == 1
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert cli._workers(6) == 3
        assert cli._workers(2) == 2
        # without an affinity call the machine's CPU count is the cap
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        assert cli._workers(6) == 6
        monkeypatch.setenv("PDP_THREADS", "4")
        assert cli._workers(6) == 4


class TestCalibrate:
    def test_gaussian_closed_form(self, gauss_file, capsys):
        rc = main(["calibrate", gauss_file, "--epsilon", "1.0"])
        assert rc == 0
        rep = json.loads(capsys.readouterr().out)
        # max leakage 1.5/lambda, so epsilon 1 needs lambda 1.5
        assert rep["lambda"] == pytest.approx(1.5, abs=1e-3)
        assert rep["leakage_at_lambda"] <= 1.0 + 1e-12
        assert rep["method"] == "enumerate"

    def test_gaussian_one_enumeration(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(19)
        A = rng.normal(size=(5, 5))
        model = {"mu": [0.0] * 5, "sigma": (A @ A.T + 0.3 * np.eye(5)).tolist(),
                 "M": 1.7, "lambda": 0.4}
        path = tmp_path / "g5.json"
        path.write_text(json.dumps(model))
        calls = []

        def counted(m, **kw):
            calls.append(m.lam)
            return max_leakage_gaussian(m, **kw)

        monkeypatch.setattr(cli, "max_leakage_gaussian", counted)
        assert main(["calibrate", str(path), "--epsilon", "0.8"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        assert rep["iterations"] == 0
        assert rep["leakage_at_lambda"] <= 0.8
        # the reported leakage is what the enumeration gives at that lambda
        at = GaussianModel(mu=model["mu"], sigma=model["sigma"], M=1.7, lam=rep["lambda"])
        assert rep["leakage_at_lambda"] == max_leakage_gaussian(at).leakage

    def test_gaussian_beyond_table_bracket(self, tmp_path, capsys):
        # x_1 tracks 100 x_0, so v = max |1 + mu0i| reaches 101 > 10 n: the
        # answer lies past a table's bracket end, and a Gaussian input has no
        # bracket
        model = {"mu": [0.0, 0.0], "sigma": [[1.0, 100.0], [100.0, 10000.01]],
                 "M": 1.0, "lambda": 1.0}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(model))
        assert main(["calibrate", str(path), "--epsilon", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        v = max_leakage_gaussian(load_gaussian_model(model)).leakage
        assert v == pytest.approx(101.0, rel=1e-9)
        lam = rep["lambda"]
        assert rep["bracket"] is None
        assert rep["leakage_at_lambda"] == 1.0 / lam * v <= 1.0
        # the least float at or above M v / eps whose leakage is at most eps
        below = float(np.nextafter(lam, 0.0))
        assert lam >= v and (below < v or 1.0 / below * v > 1.0)

    def test_gaussian_nudge(self, tmp_path, capsys):
        # M / (M / eps) rounds to 2.9790000000000005 > eps, so lambda = M / eps
        # is nudged up one float
        model = {"mu": [0.0], "sigma": [[1.0]], "M": 1.587, "lambda": 1.0}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(model))
        assert 1.587 / (1.587 / 2.979) > 2.979
        assert main(["calibrate", str(path), "--epsilon", "2.979"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["lambda"] == 0.5327291037260826
        assert rep["lambda"] == float(np.nextafter(1.587 / 2.979, np.inf))
        assert rep["leakage_at_lambda"] == 2.9789999999999996

    @pytest.mark.parametrize("method", ["full", "fast", "oracle"])
    def test_epsilon_at_the_noise_floor(self, table_a_file, capsys, method):
        # the answer to 1e308 lies near 1e-308, where S / lambda = 2e308
        # overflows, so every method refuses and names --epsilon; the answer
        # to 1e307 is admitted, though its bracket starts below the floor
        argv = ["calibrate", table_a_file, "--method", method, "--epsilon"]
        assert main(argv + ["1e308"]) == 2
        assert "--epsilon" in capsys.readouterr().err
        assert main(argv + ["1e307"]) == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 1.0000005185604094e-307

    def test_epsilon_without_finite_lambda(self, table_a_file, tmp_path, capsys):
        # 10 n GS / eps overflows for the table, M v / eps for the model
        model = {"mu": [0, 0], "sigma": [[1, 0.5], [0.5, 1]], "M": 1e300, "lambda": 1}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(model))
        for argv in ([table_a_file, "--epsilon", "1e-308"], [str(path), "--epsilon", "1e-10"]):
            assert main(["calibrate", *argv]) == 2
            assert "--epsilon" in capsys.readouterr().err

    def test_midpoints_below_the_floor(self):
        # leakage 1/lambda and eps 1/1.5 put the answer at 1.5; a floor of 1
        # makes the first midpoint of [0.1, 1.6] inadmissible, and skipping
        # it takes the step its evaluation would
        seen = []

        def leak(lam):
            seen.append(lam)
            return 1.0 / lam

        free = cli._bisect(lambda lam: 1.0 / lam, 1 / 1.5, 0.1, 1.6, 0.0)
        assert cli._bisect(leak, 1 / 1.5, 0.1, 1.6, 1.0) == free
        assert min(seen) == 1.0 and seen.count(1.0) == 1
        # an answer below the floor is refused, as is a bracket below it
        for eps, hi in ((1 / 0.9, 1.6), (1 / 1.5, 0.95)):
            with pytest.raises(ValueError, match="--epsilon"):
                cli._bisect(leak, eps, 0.1, hi, 1.0)

    def test_discrete_methods_agree(self, table_a_file, capsys):
        # no --method means full
        for extra, method in (([], "full"), (["--method", "full"], "full"),
                              (["--method", "oracle"], "oracle")):
            rc = main(["calibrate", table_a_file, "--epsilon", f"{LEAK_A_WEAK}", *extra])
            assert rc == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep["lambda"] == pytest.approx(1.0, abs=1e-3)
            assert rep["method"] == method

    def test_bad_epsilon(self, table_a_file, capsys):
        assert main(["calibrate", table_a_file, "--epsilon", "-2"]) == 2
        capsys.readouterr()

    def test_nan_epsilon(self, table_a_file, tmp_path, capsys):
        # a NaN target once bisected to "lambda": NaN, which is not JSON
        out = tmp_path / "cal.json"
        assert main(["calibrate", table_a_file, "--epsilon", "nan", "--out", str(out)]) == 2
        assert "--epsilon" in capsys.readouterr().err
        assert not out.exists()

    def test_gaussian_infinite_epsilon(self, gauss_file, capsys):
        assert main(["calibrate", gauss_file, "--epsilon", "inf"]) == 2
        assert "--epsilon" in capsys.readouterr().err

    def test_zero_sensitivity(self, tmp_path, capsys):
        # the only weighted tuple has a single-point domain
        path = tmp_path / "flat.json"
        path.write_text(
            json.dumps({"domains": [[0, 1], [7]], "probs": [[0.5], [0.5]]})
        )
        rc = main(["calibrate", str(path), "--epsilon", "1", "--query", "0,1"])
        assert rc == 2
        assert "sensitivity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "method, cap", [("full", whg.FULL_CAP), ("fast", whg.FULL_CAP),
                        ("oracle", cli.ORACLE_CAP)]
    )
    def test_size_cap(self, method, cap, tmp_path, monkeypatch, capsys):
        n = cap + 1
        path = tmp_path / "wide.json"
        path.write_text(
            json.dumps({"domains": [[0, 1]] * n, "probs": [0.5**n] * 2**n})
        )
        argv = ["calibrate", str(path), "--epsilon", "1", "--method", method]
        assert main(argv) == 3
        assert "cap" in capsys.readouterr().err
        # past the cap the evaluators run; stand-ins with leakage 1/lambda
        # keep the oversized bisection cheap
        calls = []

        def stand_in(dist, query, lam, *rest, **kw):
            calls.append(lam)
            report = SimpleNamespace(leakage=1.0 / lam)
            return {(0, ()): report} if method == "oracle" else (None, report)

        target = {"full": "full_space_search", "fast": "fast_search",
                  "oracle": "pdp_exact_all"}[method]
        monkeypatch.setattr(cli, target, stand_in)
        assert main(argv + ["--force"]) == 0
        assert calls
        assert json.loads(capsys.readouterr().out)["lambda"] == pytest.approx(1.0, abs=1e-3)


    def test_evaluations(self, table_a_file, monkeypatch, capsys):
        # the upper bracket end costs one evaluation and every bisection step
        # one more; the lower end, whose leakage is at least 10 eps, and the
        # answer are not evaluated again
        calls = []

        def stand_in(dist, query, lam, *rest, **kw):
            calls.append(lam)
            return None, SimpleNamespace(leakage=1.0 / lam)

        monkeypatch.setattr(cli, "full_space_search", stand_in)
        assert main(["calibrate", table_a_file, "--epsilon", "1"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["iterations"] > 0
        assert len(calls) == rep["iterations"] + 1
        assert rep["leakage_at_lambda"] == 1.0 / rep["lambda"]


@pytest.mark.parametrize("argv, message", [
    (["oracle-check", "{listed}"], "expected a JSON object"),
    (["calibrate", "{neither}", "--epsilon", "1"], 'need either "probs"'),
    (["analyze-gaussian", "{g}", "--adversary", ","], "at least the attacked index"),
    (["experiment", "--kind", "discrete", "--averCorr", ",", "--out", "{out}"],
     "at least one value"),
], ids=["not-an-object", "neither-kind", "empty-adversary", "empty-sweep"])
def test_input_refusals(gauss_file, tmp_path, capsys, argv, message):
    files = {"listed": tmp_path / "list.json", "neither": tmp_path / "neither.json",
             "g": gauss_file, "out": tmp_path / "out.csv"}
    files["listed"].write_text("[1, 2]")
    files["neither"].write_text('{"mu": [0]}')
    assert main([a.format(**files) for a in argv]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["oracle-check", "{g}", "--lambda", "2"], "--lambda"),
    (["oracle-check", "{g}", "--query", "1,1,1"], "--query"),
    (["calibrate", "{g}", "--epsilon", "1", "--method", "oracle"], "--method"),
    (["calibrate", "{g}", "--epsilon", "1", "--query", "1,1,1"], "--query"),
    (["experiment", "--kind", "gaussian", "--n", "4", "--beta-alpha", "8"], "--beta-alpha"),
], ids=["oracle-lambda", "oracle-query", "calibrate-method", "calibrate-query",
        "experiment-beta-alpha"])
def test_gaussian_refuses_unused_options(gauss_file, tmp_path, capsys, argv, flag):
    # a Gaussian model file carries its own M and lambda; a Gaussian sweep
    # has no Beta edges
    out = tmp_path / "out"
    assert main([a.format(g=gauss_file) for a in argv] + ["--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


class TestCalibrateBracket:
    """calibrate checks neither end of a table's bracket: it relies on the
    leakage reaching 10 eps at GS/(10 eps) and at most eps/10 at 10 n GS/eps
    for every evaluator."""

    COEFFICIENTS = (-2.0, -0.5, 0.0, 1.0, 3.0)

    def test_bracket_holds_answer(self):
        rng = np.random.default_rng(24)
        for _ in range(120):
            n = int(rng.integers(2, 6))
            dist = random_instance(rng, n)
            coef = rng.choice(self.COEFFICIENTS, size=n)
            if not coef.any():
                coef[rng.integers(n)] = 1.0
            query = QuerySpec(tuple(coef))
            gs = global_sensitivity(dist, query)
            for eps in (0.01, 1.0, 50.0):
                lo, hi = gs / (10.0 * eps), 10.0 * n * gs / eps
                for method in ("full", "fast", "oracle"):
                    assert cli._max_leakage(dist, query, lo, method) >= 10.0 * eps * (1 - 1e-12)
                    assert cli._max_leakage(dist, query, hi, method) <= eps / 10.0


class TestCalibrateMonotonicity:
    """The bisection in calibrate assumes leakage never grows with lambda."""

    LAMS = np.geomspace(0.05, 20.0, 40)

    def test_discrete_chain_and_oracle(self):
        rng = np.random.default_rng(17)
        query = QuerySpec.sum_query(3)
        for _ in range(40):
            dist = random_instance(rng, 3)
            chain = [full_space_search(dist, query, lam)[1].leakage for lam in self.LAMS]
            # what calibrate --method oracle bisects over
            exact = [
                max(r.leakage for r in pdp_exact_all(dist, query, lam).values())
                for lam in self.LAMS
            ]
            assert np.all(np.diff(chain) <= 0.0)
            assert np.all(np.diff(exact) <= 0.0)

    def test_gaussian_scales_as_one_over_lambda(self):
        rng = np.random.default_rng(18)
        for n in (3, 5):
            A = rng.normal(size=(n, n))
            sigma = A @ A.T + 0.3 * np.eye(n)
            scaled = [
                max_leakage_gaussian(GaussianModel(mu=[0.0] * n, sigma=sigma, lam=lam)).leakage * lam
                for lam in self.LAMS
            ]
            assert max(scaled) - min(scaled) <= 1e-12


def test_scipy_special_loaded_on_demand(table_a_file, tmp_path):
    # a fresh interpreter: this test process has already loaded scipy.special
    script = (
        "import sys\n"
        "import priordp, priordp.cli\n"
        "from priordp.cli import main\n"
        "assert main(['analyze-discrete', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
        "assert main(['oracle-check', sys.argv[1], '--out', sys.argv[3]]) == 0\n"
        "print('scipy.special' in sys.modules)\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script, table_a_file,
         str(tmp_path / "report.json"), str(tmp_path / "check.json")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_installed_script(gauss_file):
    exe = shutil.which("priordp")
    assert exe, "console script not installed"
    proc = subprocess.run(
        [exe, "analyze-gaussian", gauss_file, "--adversary", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["leakage"] == pytest.approx(1.5)
