"""Oracle engine, Monte Carlo runs, pipeline, and the CLI surface."""
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from biascsp.harness import exact_expectation, mc_run, rng_for
from biascsp.harness.pipeline import ConfigError, parse_number, run_pipeline


class TestExactExpectation:
    def test_xor_over_uniform_square(self):
        values = [a ^ b for a in (0, 1) for b in (0, 1)]
        res = exact_expectation(values)
        assert res.value == pytest.approx(0.5)
        assert res.exact == Fraction(1, 2)
        assert res.enumeration_size == 4

    def test_constant(self):
        res = exact_expectation([0.37] * 8)
        assert res.value == pytest.approx(0.37)

    def test_weighted_fractions_stay_exact(self):
        res = exact_expectation(
            [Fraction(1), Fraction(0)], weights=[Fraction(1, 3), Fraction(2, 3)]
        )
        assert res.exact == Fraction(1, 3)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            exact_expectation([])


class TestMcRun:
    def test_fair_coin(self):
        run = mc_run(lambda rng, n: rng.integers(0, 2, size=n), 10 ** 6, 3)
        assert run.value == pytest.approx(0.5, abs=3 * run.stderr)
        lo, hi = run.ci95
        assert lo < 0.5 < hi

    def test_seed_reproducibility(self):
        est = lambda rng, n: rng.random(n)
        a = mc_run(est, 200000, 9)
        b = mc_run(est, 200000, 9)
        assert a.value == b.value

    def test_worker_split_invariance(self):
        est = lambda rng, n: rng.random(n)
        single = mc_run(est, 300000, 11, workers=1)
        multi = mc_run(est, 300000, 11, workers=4)
        assert single.value == multi.value

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            mc_run(lambda rng, n: rng.random(n), 0, 1)


class TestRngFamily:
    def test_distinct_paths_distinct_streams(self):
        a = rng_for(5, "alpha").random(4)
        b = rng_for(5, "beta").random(4)
        assert not np.allclose(a, b)

    def test_same_path_same_stream(self):
        np.testing.assert_array_equal(rng_for(5, "x", 3).random(4), rng_for(5, "x", 3).random(4))


def product_config(tmp_path, **overrides):
    instance = {
        "predicate": {"arity": 2, "accepting": ["01", "10"]},
        "vertices": [{"id": f"v{i}", "weight": 0.25} for i in range(4)],
        "edges": [
            {"vs": [f"v{i}", f"v{(i + 1) % 4}"], "weight": 0.25} for i in range(4)
        ],
    }
    cfg = {
        "seed": 7,
        "instance": instance,
        "pseudodistribution": {"kind": "product", "mu": 0.5, "level": 8},
        "smooth": {"eta": "1/2", "mu": 0.5},
        "condition": {"target": 0.05, "budget": 4},
        "rounding": {"enabled": True, "R": 3, "trials": 400, "value_trials": 4000},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseNumber:
    def test_rationals_and_decimals(self):
        assert parse_number("1/4") == pytest.approx(0.25)
        assert parse_number("0.3") == pytest.approx(0.3)
        assert parse_number(2) == 2.0


class TestPipeline:
    def test_product_family_all_verdicts_pass(self, tmp_path):
        report = run_pipeline(str(product_config(tmp_path)))
        assert report["ok"], report
        by_stage = {s["stage"]: s for s in report["stages"]}
        assert by_stage["condition"]["extra"]["trace"] == []
        for key in ("stage", "verdict", "value", "bound", "stderr", "seed", "samples"):
            for s in report["stages"]:
                assert key in s

    def test_correlated_mixture_conditions(self, tmp_path):
        mixture = {
            "kind": "mixture",
            "level": 8,
            "support": [
                {"labels": {f"v{i}": 1 for i in range(4)}, "prob": 0.5},
                {"labels": {f"v{i}": 0 for i in range(4)}, "prob": 0.5},
            ],
        }
        path = product_config(tmp_path, pseudodistribution=mixture)
        report = run_pipeline(str(path))
        by_stage = {s["stage"]: s for s in report["stages"]}
        assert by_stage["condition"]["extra"]["trace"]
        assert by_stage["condition"]["verdict"]
        assert by_stage["condition"]["value"] <= 0.05

    def test_malformed_input_raises_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            run_pipeline(str(path))

    def test_missing_field_raises_config_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"seed": 1, "instance": {"vertices": []}}))
        with pytest.raises(ConfigError):
            run_pipeline(str(path))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "biascsp.harness.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def instance_file(tmp_path):
    obj = {
        "predicate": {"arity": 2, "accepting": ["01", "10"]},
        "vertices": [{"id": f"v{i}", "weight": 0.25} for i in range(4)],
        "edges": [
            {"vs": [f"v{i}", f"v{(i + 1) % 4}"], "weight": 0.25} for i in range(4)
        ],
    }
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(obj))
    return path


@pytest.fixture()
def pd_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps({"kind": "product", "mu": 0.5, "level": 6}))
    return path


class TestCli:
    def test_csp_opt(self, instance_file, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli(
            "csp", "opt", "--mu", "1/2", "--tol", "0", "--in", str(instance_file),
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["value"] == pytest.approx(1.0)

    def test_pd_verify(self, instance_file, pd_file):
        proc = run_cli(
            "pd", "verify", "--in", str(pd_file), "--instance", str(instance_file),
            "--mu", "0.5",
        )
        assert proc.returncode == 0, proc.stderr

    def test_pd_smooth_and_condition(self, instance_file, pd_file, tmp_path):
        proc = run_cli(
            "pd", "smooth", "--eta", "0.2", "--in", str(pd_file),
            "--instance", str(instance_file),
        )
        assert proc.returncode == 0
        proc = run_cli(
            "pd", "condition", "--target", "0.1", "--budget", "2",
            "--in", str(pd_file), "--instance", str(instance_file),
        )
        assert proc.returncode == 0

    def test_gauss_lambda(self):
        proc = run_cli(
            "gauss", "lambda", "--rho", "0", "--deltas", "0.5,0.5",
            "--samples", "20000", "--seed", "1",
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["value"] == pytest.approx(0.25, abs=0.02)

    def test_gauss_borell(self):
        spec = json.dumps([
            {"kind": "constant", "value": 0.4},
            {"kind": "constant", "value": 0.5},
        ])
        proc = run_cli(
            "gauss", "borell", "--rho", "0.5", "--dim", "2",
            "--samples", "20000", "--seed", "2", "--functions", spec,
        )
        assert proc.returncode == 0, proc.stderr

    def test_round_run(self, instance_file, pd_file):
        proc = run_cli(
            "round", "run", "--in", str(instance_file), "--pd", str(pd_file),
            "--R", "3", "--trials", "4", "--seed", "3",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["outcomes"]) == 4

    def test_round_run_trials_have_own_streams(self, instance_file, tmp_path):
        # trial 1 at --seed 3 must not replay trial 0 at --seed 4
        pd = tmp_path / "mixture.json"
        ones = {f"v{i}": 1 for i in range(4)}
        alternating = {f"v{i}": i % 2 for i in range(4)}
        pd.write_text(json.dumps({
            "kind": "mixture", "level": 6,
            "support": [{"labels": ones, "prob": 0.5}, {"labels": alternating, "prob": 0.5}],
        }))

        def trial_p(seed, trial):
            proc = run_cli(
                "round", "run", "--in", str(instance_file), "--pd", str(pd),
                "--R", "3", "--trials", "2", "--seed", str(seed),
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)["outcomes"][trial]["p"]

        assert trial_p(3, 1) != trial_p(4, 0)

    def test_reduce_gen_and_accept(self, instance_file, pd_file, tmp_path):
        graph_file = tmp_path / "graph.json"
        proc = run_cli(
            "reduce", "gen", "--kind", "planted", "--n", "16", "--deg", "4",
            "--delta", "0.25", "--seed", "4", "--out", str(graph_file),
        )
        assert proc.returncode == 0, proc.stderr
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["graph"]))
        proc = run_cli(
            "reduce", "accept", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file), "--R", "6", "--trials", "20000", "--seed", "5",
        )
        assert proc.returncode == 0, proc.stderr

    def test_reduce_sample(self, instance_file, pd_file, tmp_path):
        graph_file = tmp_path / "graph.json"
        run_cli(
            "reduce", "gen", "--kind", "random-regular", "--n", "12", "--deg", "4",
            "--seed", "6", "--out", str(graph_file),
        )
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["graph"]))
        proc = run_cli(
            "reduce", "sample", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file), "--R", "5", "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["parts"]) == 2
        assert len(report["parts"][0]["B"]) == 5

    def test_pipeline_command(self, tmp_path):
        cfg = product_config(tmp_path)
        out = tmp_path / "report.json"
        proc = run_cli("pipeline", "--config", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        assert report["ok"]

    def test_failing_verdict_exit_code(self, instance_file, tmp_path):
        bad_pd = tmp_path / "bad_pd.json"
        bad_pd.write_text(
            json.dumps(
                {
                    "level": 2,
                    "locals": (
                        [
                            {"subset": [f"v{i}"], "probs": {"0": 0.5, "1": 0.5}}
                            for i in range(4)
                        ]
                        + [
                            {
                                "subset": [f"v{i}", f"v{(i + 1) % 4}"],
                                # marginal here says 0.6, contradicting 0.5
                                "probs": {"00": 0.4, "10": 0.3, "11": 0.3},
                            }
                            for i in range(4)
                        ]
                    ),
                }
            )
        )
        proc = run_cli(
            "pd", "verify", "--in", str(bad_pd), "--instance", str(instance_file)
        )
        assert proc.returncode == 1

    def test_input_error_exit_code(self, tmp_path):
        missing = tmp_path / "nope.json"
        proc = run_cli("csp", "opt", "--mu", "0.5", "--in", str(missing))
        assert proc.returncode == 2

    def test_bad_json_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{]")
        proc = run_cli("pipeline", "--config", str(bad))
        assert proc.returncode == 2
