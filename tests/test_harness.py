"""Monte Carlo runs, the stage record, the pipeline, and the CLI surface."""
import inspect
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from biascsp.harness import cli, mc, mc_run, rng_for
from biascsp.harness.mc import CHUNK
from biascsp.harness.pipeline import ConfigError, StageError, failed, meter, parse_number, run_pipeline, stage
from biascsp.harness.verdict import SIGMAS, Check
from conftest import cpus, traced_peak


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

    def test_sample_count_validated(self):
        with pytest.raises(ValueError):
            mc_run(lambda rng, n: rng.random(n), 0, 1)


def squares(rng, n):
    return rng.standard_normal(n) ** 2


class TestParallelMcRun:
    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, 3 * CHUNK + 5])
    def test_equals_the_serial_run(self, monkeypatch, samples):
        cpus(monkeypatch, 1)
        serial = mc_run(squares, samples, 21, tag="par")
        cpus(monkeypatch, 3)
        par = mc_run(squares, samples, 21, tag="par")
        assert (par.value, par.stderr, par.ci95, par.samples) == (serial.value, serial.stderr, serial.ci95, samples)
        assert (serial.threads, par.threads) == (1, min(3, -(-samples // CHUNK)))

    def test_worker_error_is_reraised(self, monkeypatch):
        cpus(monkeypatch, 3)
        main = threading.main_thread()

        def short_off_main(rng, n):
            return rng.random(n - (threading.current_thread() is not main))

        before = threading.active_count()
        with pytest.raises(ValueError, match="estimator returned wrong sample count"):
            mc_run(short_off_main, 4 * CHUNK, 1)
        assert threading.active_count() == before  # every worker was joined

    def test_each_chunk_makes_its_own_generator(self, monkeypatch):
        # whichever thread works chunk c makes rng_for(seed, tag, c), once
        cpus(monkeypatch, 3)
        made = []

        def recording_rng_for(seed, tag, c):
            made.append(c)
            return rng_for(seed, tag, c)

        monkeypatch.setattr(mc, "rng_for", recording_rng_for)
        run = mc_run(squares, 7 * CHUNK + 1, 4)
        assert run.threads == 3
        assert sorted(made) == list(range(8))

    def test_results_come_back_in_chunk_order(self, monkeypatch):
        # later chunks finish first; a result stored by finishing order, or
        # a chunk lost or run twice, would show in the list
        cpus(monkeypatch, 3)

        def work(c, n):
            time.sleep(0.002 * (10 - c))
            return c, n, threading.get_ident()

        results, threads = mc.run_chunks(work, 31, 3)
        assert threads == 3
        assert [r[:2] for r in results] == [(c, 3) for c in range(10)] + [(10, 1)]
        assert len({r[2] for r in results}) > 1

    @pytest.mark.parametrize("chunk", [0, -1])
    def test_bad_chunk_size_refused_before_work(self, chunk):
        # chunk = 0 would fail inside range(); chunk = -1 would give no
        # chunks at all, so mc_run would report 0.0 from zero samples
        calls = []
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            mc.run_chunks(lambda c, n: calls.append(c), 10, chunk)
        with pytest.raises(ValueError, match="chunk must be at least 1"):
            mc_run(lambda rng, n: calls.append(n) or rng.random(n), 10, 1, chunk=chunk)
        assert calls == []

    def test_chunk_size_keys_the_streams(self, monkeypatch):
        # chunk c of a given size draws from rng_for(seed, tag, c)
        cpus(monkeypatch, 3)
        run = mc_run(squares, 2 * 100 + 7, 5, tag="sized", chunk=100)
        draws = [squares(rng_for(5, "sized", c), n) for c, n in enumerate((100, 100, 7))]
        assert run.threads == 3
        assert run.value == math.fsum(float(d.sum()) for d in draws) / 207

    def test_one_cpu_runs_serially(self, monkeypatch):
        cpus(monkeypatch, 3)
        threaded = mc_run(squares, 5 * CHUNK, 6)
        cpus(monkeypatch, 1)

        def no_thread(*args, **kwargs):
            raise AssertionError("started a thread on one CPU")

        monkeypatch.setattr(mc.threading, "Thread", no_thread)
        run = mc_run(squares, 5 * CHUNK, 6)
        assert run.threads == 1
        assert run.value == threaded.value

    def test_many_threads_on_tiny_chunks(self, monkeypatch):
        # more workers than cores and a short switch interval: a lost or
        # misplaced chunk sum would change the value or leave a None behind
        monkeypatch.setattr(mc, "CHUNK", 16)
        cpus(monkeypatch, 1)
        serial = mc_run(squares, 16 * 200 + 3, 8)
        cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [mc_run(squares, 16 * 200 + 3, 8) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        assert {(r.value, r.stderr, r.threads) for r in runs} == {(serial.value, serial.stderr, 8)}

    def test_import_does_not_load_concurrent_futures(self):
        code = "import sys, biascsp, biascsp.gaussian, biascsp.harness.cli; print('concurrent.futures' in sys.modules)"
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                             env={**os.environ, "PYTHONPATH": str(src)}, timeout=60)
        assert out.stdout.strip() == "False"


class TestScratch:
    @staticmethod
    def three_threads_take_chunks(work):
        """``work`` run over 31 items in chunks of 3 on three CPUs; chunks 0-2
        wait for one another when done, so each thread takes one of them and
        all three threads are in a run at once."""
        barrier = threading.Barrier(3)

        def gated(c, n):
            result = work(c, n)
            if c < 3:
                barrier.wait(timeout=30)
            return result

        results, threads = mc.run_chunks(gated, 31, 3)
        assert threads == 3
        return results

    def test_each_worker_reuses_its_own_buffer(self, monkeypatch):
        cpus(monkeypatch, 3)

        def work(c, n):
            a = mc.scratch("test.buffer", (n, 4))
            return threading.get_ident(), a.ctypes.data, a.shape

        results = self.three_threads_take_chunks(work)
        assert [r[2] for r in results] == [(3, 4)] * 10 + [(1, 4)]
        addresses: dict = {}
        for ident, address, _ in results:
            addresses.setdefault(ident, set()).add(address)
        assert len(addresses) == 3
        assert all(len(a) == 1 for a in addresses.values())  # 11 chunks: some thread took several
        assert len(set.union(*addresses.values())) == 3

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("fail", [False, True])
    def test_dropped_when_the_run_ends(self, monkeypatch, k, fail):
        import gc
        import weakref

        cpus(monkeypatch, k)
        buffers = []

        def work(c, n):
            a = mc.scratch("test.buffer", (n,))
            buffers.append(weakref.ref(a.base))
            del a
            if fail and c == 5:
                raise RuntimeError("chunk 5")
            return c

        if fail:
            with pytest.raises(RuntimeError, match="chunk 5"):
                mc.run_chunks(work, 31, 3)
        else:
            assert mc.run_chunks(work, 31, 3) == (list(range(11)), k)
        gc.collect()
        assert buffers and all(ref() is None for ref in buffers)
        assert mc.scratch("test.buffer", (3,)).base is None  # back outside a run

    def test_fresh_outside_a_run(self):
        a = mc.scratch("test.buffer", (4, 4))
        b = mc.scratch("test.buffer", (4, 4))
        assert a.base is None and b.base is None
        assert not np.shares_memory(a, b)

    def test_evaluate_into_out_is_bit_identical(self, monkeypatch):
        # 5000 points: two full evaluation chunks of 2048 rows and a short one
        from biascsp.polynomial import MultilinearPolynomial

        cpus(monkeypatch, 3)
        poly = MultilinearPolynomial(np.random.default_rng(3).standard_normal((2,) * 7))
        points = np.random.default_rng(4).standard_normal((5000, 7))
        want = poly.evaluate(points)
        out = np.empty(5000)
        assert poly.evaluate(points, out=out) is out
        assert np.array_equal(out, want)

        def work(c, n):
            got = poly.evaluate(points, out=mc.scratch("test.values", len(points)))
            return bool(np.array_equal(got, want))

        assert self.three_threads_take_chunks(work) == [True] * 11

    @pytest.mark.parametrize("k", [1, 3])
    def test_chunk_sums_square_into_scratch_bit_for_bit(self, monkeypatch, k):
        # values over six decades, so a different summation would show in the last bits
        cpus(monkeypatch, k)
        views = [
            lambda x: x[:, 1],  # a strided column
            lambda x: x[:, :1],  # (n, 1)
            lambda x: x[:, 2] > 0,  # bool
            lambda x: np.ascontiguousarray(x[:, 0]),
        ]

        def work(c, n):
            x = rng_for(5, "t-sums", c).standard_normal((n, 3)) * np.logspace(-3, 3, n)[:, None]
            sums = [mc._chunk_sums(lambda rng, m: view(x), None, n) for view in views]
            fresh = [np.asarray(view(x), dtype=float) for view in views]
            assert ("mc.squares", float) in mc._worker.buffers
            return sums == [(float(v.sum()), float((v ** 2).sum())) for v in fresh]

        results, threads = mc.run_chunks(work, 10_000, 3000)
        assert (results, threads) == ([True] * 4, k)


class TestRngFamily:
    def test_distinct_paths_distinct_streams(self):
        a = rng_for(5, "alpha").random(4)
        b = rng_for(5, "beta").random(4)
        assert not np.allclose(a, b)

    def test_same_path_same_stream(self):
        np.testing.assert_array_equal(rng_for(5, "x", 3).random(4), rng_for(5, "x", 3).random(4))

    def test_streams_are_sfc64_with_a_pinned_first_draw(self):
        # every Monte Carlo value in the library moves if this draw moves
        rng = rng_for(0, "pin")
        assert type(rng.bit_generator) is np.random.SFC64
        assert rng.random() == 0.32236656487688076

    def test_chunk_streams_are_uniform_and_uncorrelated(self):
        size = 2 ** 14
        draws = np.stack([rng_for(0, "chunks", c).random(size) for c in range(64)])
        # U(0, 1) has variance 1/12: each chunk mean within 4 sigma of 1/2
        assert np.abs(draws.mean(axis=1) - 0.5).max() <= 4.0 * math.sqrt(1.0 / 12.0 / size)
        corr = np.corrcoef(draws)
        neighbours = np.diagonal(corr, offset=1)
        assert np.abs(neighbours).max() <= 4.0 / math.sqrt(size)


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


def expected_status(verdict, applicable, vacuous) -> str:
    """fail > not-applicable > vacuous > pass."""
    if verdict is None:
        return "not-applicable"
    if not verdict:
        return "fail"
    if applicable is not None and not applicable:
        return "not-applicable"
    return "vacuous" if vacuous else "pass"


class TestStageRecord:
    FLAG = st.sampled_from([True, False, None, np.True_, np.False_])
    NUM = st.floats(-2.0, 2.0, allow_nan=False)
    UNIT = st.floats(0.0, 1.0)

    @given(
        verdict=FLAG, applicable=FLAG, vacuous=FLAG, value=NUM, bound=NUM, side=st.sampled_from(["<=", ">="]),
        stderr=st.none() | UNIT, slack=UNIT, span=st.none() | st.tuples(NUM, NUM).map(lambda t: tuple(sorted(t))),
        inside=UNIT, centre=UNIT, threshold=st.floats(0.0, 2.0, exclude_min=True),
    )
    def test_status_precedence(
        self, verdict, applicable, vacuous, value, bound, side, stderr, slack, span, inside, centre, threshold
    ):
        record = stage("s", verdict, value=0.5, applicable=applicable, vacuous=vacuous)
        expected = expected_status(verdict, applicable, vacuous)
        assert record["status"] == expected
        assert record["verdict"] is (None if verdict is None else bool(verdict))
        assert failed([record]) is (expected == "fail")
        # a flag that is given is recorded next to the status; None means no such flag
        flags = {"applicable": applicable, "vacuous": vacuous}
        assert record.get("extra", {}) == {k: v for k, v in flags.items() if v is not None}

        # a Check derives its verdict, its vacuity and its status by the same precedence
        fields = dict(bound=bound, side=side, stderr=stderr, slack=slack, span=span, applicable=applicable)
        check = Check(value, **fields)
        band = slack + SIGMAS * (stderr or 0.0)
        meets = value <= bound + band if side == "<=" else value >= bound - band
        assert check.holds is (None if applicable is not None and not applicable else meets)
        assert check.status == stage("s", check)["status"] == expected_status(check.holds, applicable, check.vacuous)
        if check.vacuous:
            # every value the check can take passes, wherever it applies
            lo, hi = span
            for v in (lo, hi, min(max(lo + inside * (hi - lo), lo), hi)):
                assert Check(v, **{**fields, "applicable": None}).holds
        # acceptance: a probability against a lower bound is vacuous exactly when the
        # bound is <= 0, whatever its band
        assert Check(inside, bound, ">=", stderr, slack, span=(0.0, 1.0)).vacuous is (bound <= 0.0)
        # mixing: a fraction, 0 when no mean in [0, 1] reaches the threshold; below a
        # bound of 1 it is vacuous exactly then
        unreached = threshold > max(centre, 1.0 - centre)
        mixing = Check(0.0, inside * 0.999, span=(0.0, 0.0) if unreached else (0.0, 1.0))
        assert mixing.vacuous is unreached

    def test_stable_keys(self):
        record = stage("s", True, value=1.0, seed=3, elapsed_s=0.1)
        keys = ["stage", "verdict", "status", "value", "bound", "stderr", "seed", "samples", "extra"]
        assert list(record) == keys
        assert record["extra"] == {"elapsed_s": 0.1}
        assert "extra" not in stage("s", None)


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

    def test_verify_input_reports_moment_size(self, tmp_path):
        report = run_pipeline(str(product_config(tmp_path)))
        extra = report["stages"][0]["extra"]
        assert report["stages"][0]["stage"] == "verify-input"
        # 4 vertices at level 8: index subsets of size <= 4, all 16 of them
        assert extra["moment_size"] == 16
        assert extra["elapsed_s"] >= 0.0

    def test_rounding_value_reports_applicability(self, tmp_path):
        # default dictator tables at mean 0.5 have influence 0.25 * 0.99^2 > tau
        for functions, applicable in ((None, False), ({"kind": "constant"}, True)):
            rounding = {"enabled": True, "R": 3, "trials": 400, "value_trials": 4000}
            if functions:
                rounding["functions"] = functions
            report = run_pipeline(str(product_config(tmp_path, rounding=rounding)))
            stage = next(s for s in report["stages"] if s["stage"] == "rounding-value")
            assert stage["extra"]["applicable"] is applicable
            assert stage["extra"]["exact_elapsed_s"] >= 0.0

    @staticmethod
    def reduction_stages(tmp_path) -> dict:
        mixture = {
            "kind": "mixture",
            "level": 6,
            "support": [
                {"labels": {f"v{i}": 1 for i in range(4)}, "prob": 0.3},
                {"labels": {f"v{i}": 0 for i in range(4)}, "prob": 0.7},
            ],
        }
        reduction = {
            "graph": {"kind": "planted", "n": 16, "deg": 4, "delta": 0.25, "seed": 3},
            "params": {"R": 4},
            "accept_trials": 2000,
            "alpha": 2.0,
            "a_samples": 20,
            "inner_samples": 16,
        }
        path = product_config(
            tmp_path,
            pseudodistribution=mixture,
            smooth={"eta": 0.1, "mu": 0.3},
            condition={"target": 1.0, "budget": 0},
            rounding={"enabled": False},
            reduction=reduction,
        )
        return {s["stage"]: s for s in run_pipeline(str(path))["stages"]}

    def test_mixing_stage_reports_vacuous(self, tmp_path):
        by_stage = self.reduction_stages(tmp_path)
        # threshold 2*sqrt(centre ~ 0.3) ~ 1.1: no [0,1] mean can reach it
        assert by_stage["mixing"]["extra"]["threshold"] > 1.0
        assert by_stage["mixing"]["extra"]["vacuous"] is True

    def test_reduction_stages_report_vacuous_status(self, tmp_path):
        by_stage = self.reduction_stages(tmp_path)
        # completeness bound exp(-6)*rho^2/r*objective - 10*r*eta < 0: every estimate passes it
        assert by_stage["reduction-acceptance"]["bound"] <= 0.0
        assert by_stage["reduction-acceptance"]["status"] == "vacuous"
        assert by_stage["mixing"]["status"] == "vacuous"
        assert by_stage["verify-input"]["status"] == "pass"

    def test_reduction_stages_report_work(self, tmp_path):
        by_stage = self.reduction_stages(tmp_path)
        acc, mix = by_stage["reduction-acceptance"]["extra"], by_stage["mixing"]["extra"]
        # one dictator query per position of each trial (XOR settles no row
        # early), one per mixing draw
        assert acc["dictator_queries"] == 2 * 2000
        assert acc["positions_per_trial"] == 2.0
        assert mix["dictator_queries"] == 20 * mix["inner_samples"] == 20 * 16
        for extra in (acc, mix):
            assert extra["elapsed_s"] > 0.0 and extra["samples_per_s"] > 0.0
            assert extra["minor_faults"] >= 0
            # the dictator permutes exactly its fallback rows
            assert extra["permuted_rows"] == extra["dictator_fallbacks"] <= extra["dictator_queries"]
        assert acc["samples_per_s"] == 2000 / acc["elapsed_s"]

    def test_rounding_stages_report_threads_and_throughput(self, tmp_path, monkeypatch):
        # 4000 rounds in chunks of 2048 on two usable CPUs
        import biascsp.rounding as rounding

        cpus(monkeypatch, 2)
        monkeypatch.setattr(rounding, "BLOCK_ENTRIES", 1)
        rounding_cfg = {"enabled": True, "R": 3, "trials": 4000, "value_trials": 4000}
        report = run_pipeline(str(product_config(tmp_path, rounding=rounding_cfg)))
        for name in ("rounding-variance", "rounding-value"):
            extra = next(s for s in report["stages"] if s["stage"] == name)["extra"]
            assert extra["threads"] == 2
            assert extra["samples_per_s"] > 0.0
            assert extra["minor_faults"] >= 0

    def test_acceptance_stage_reports_its_threads(self, tmp_path, monkeypatch):
        # 2000 trials in chunks of 512 on two usable CPUs
        import biascsp.reduction.analysis as analysis

        cpus(monkeypatch, 2)
        monkeypatch.setattr(analysis, "_LIFTED_ROWS", 512)
        assert self.reduction_stages(tmp_path)["reduction-acceptance"]["extra"]["threads"] == 2

    def test_mixing_stage_reports_its_threads(self, tmp_path, monkeypatch):
        # 20 vertex-vectors of 16 draws at R = 4 in chunks of 4 on three
        # usable CPUs: a block of 4 * 16 * 4 lifted entries
        import biascsp.reduction.analysis as analysis

        cpus(monkeypatch, 3)
        monkeypatch.setattr(analysis, "BLOCK_ENTRIES", 4 * 16 * 4)
        assert analysis._mixing_block(4, 16) == 4
        assert self.reduction_stages(tmp_path)["mixing"]["extra"]["threads"] == 3

    def test_mixing_default_is_the_checks_own(self, tmp_path, capsys):
        # without inner_samples in the config, the pipeline and `reduce mix`
        # both take mixing_check's default, so they agree on the same inputs
        from biascsp.reduction import mixing_check

        default = inspect.signature(mixing_check).parameters["inner_samples"].default
        cfg_path = product_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        graph_spec = {"kind": "planted", "n": 8, "deg": 2, "delta": 0.25, "seed": 3}
        cfg.update(
            rounding={"enabled": False},
            reduction={"graph": graph_spec, "params": {"R": 3}, "accept_trials": 100, "a_samples": 4},
        )
        cfg_path.write_text(json.dumps(cfg))
        mix = {s["stage"]: s for s in run_pipeline(str(cfg_path))["stages"]}["mixing"]
        assert mix["extra"]["dictator_queries"] == 4 * default
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps(cfg["instance"]))
        pd = tmp_path / "pd.json"
        pd.write_text(json.dumps(cfg["pseudodistribution"]))
        _, gen = run_main(capsys, "reduce", "gen", *(f"--{k}={v}" for k, v in graph_spec.items()))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(gen["extra"]["graph"]))
        _, record = run_main(
            capsys, "reduce", "mix", "--instance", instance, "--pd", pd, "--graph", graph,
            "--R", 3, "--a-samples", 4, "--seed", cfg["seed"],
        )
        # the smoothing and conditioning leave the product family as it is
        assert record["extra"]["dictator_queries"] == mix["extra"]["dictator_queries"]
        assert (record["value"], record["extra"]["threshold"]) == (mix["value"], mix["extra"]["threshold"])

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

    def test_variance_and_conditioning_report_vacuous(self, tmp_path):
        # halfway smoothing keeps |corr| 1/4 between the vertices of the all-or-none
        # mixture: the variance bound is (4 + 12/4) / 16 = 7/16, above the 1/4 that a
        # bias in [0, 1] can reach, and target 1.0 is above every avg |corr|
        mixture = {
            "kind": "mixture",
            "level": 8,
            "support": [
                {"labels": {f"v{i}": 1 for i in range(4)}, "prob": 0.5},
                {"labels": {f"v{i}": 0 for i in range(4)}, "prob": 0.5},
            ],
        }
        path = product_config(tmp_path, pseudodistribution=mixture, condition={"target": 1.0, "budget": 0})
        by_stage = {s["stage"]: s for s in run_pipeline(str(path))["stages"]}
        variance = by_stage["rounding-variance"]
        assert variance["bound"] == pytest.approx(7 / 16)
        assert (variance["verdict"], variance["status"], variance["extra"]["vacuous"]) == (True, "vacuous", True)
        assert by_stage["condition"]["status"] == "vacuous"
        assert by_stage["vector-solution"]["status"] == "pass"

    @pytest.mark.parametrize("section, knobs, tag", [
        ("rounding", {"functions": {"tables": {f"v{i}": [0.5] * 7 + [1.5 - i // 3] for i in range(4)}}}, "rounding"),
        ("rounding", {"trials": 0}, "rounding-variance"),
        ("rounding", {"value_trials": 0}, "rounding-value"),
        ("reduction", {"params": {"R": 0}}, "reduction"),
        ("reduction", {"accept_trials": 0}, "reduction-acceptance"),
        ("reduction", {"a_samples": 0}, "mixing"),
    ])
    def test_failure_names_its_stage(self, tmp_path, section, knobs, tag):
        # a table above 1 at v0-v2, R = 0, and zero trials or samples each
        # fail inside the stage that reads them, and the error names it
        configs = {
            "rounding": {"enabled": True, "R": 3, "trials": 40, "value_trials": 40},
            "reduction": {
                "graph": {"kind": "planted", "n": 16, "deg": 4, "delta": 0.25, "seed": 3},
                "params": {"R": 4}, "accept_trials": 40, "a_samples": 4, "inner_samples": 4,
            },
        }
        configs[section].update(knobs)
        path = product_config(tmp_path, **configs)
        with pytest.raises(StageError, match=rf"^\[stage {tag}\] ValueError"):
            run_pipeline(str(path))

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

    @pytest.mark.parametrize("window", [["--tol", "0"], ["--gamma", "0.04"]])
    def test_csp_opt_reports_scan(self, instance_file, window):
        proc = run_cli("csp", "opt", "--mu", "1/2", *window, "--in", str(instance_file))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        # 4 vertices of weight 1/4: 16 assignments, C(4,2) = 6 of them at weight 1/2
        assert report["extra"]["assignments"] == 16
        assert report["extra"]["in_window"] == 6
        assert report["extra"]["elapsed_s"] >= 0.0

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
        assert len(report["extra"]["outcomes"]) == 4

    def test_round_run_trial_does_not_depend_on_the_trial_count(self, instance_file, pd_file):
        # the Bernoulli uniforms have a stream of their own; read after the
        # matrices in one stream, they would start elsewhere at --trials 40
        def outcomes(trials):
            proc = run_cli(
                "round", "run", "--in", str(instance_file), "--pd", str(pd_file),
                "--R", "3", "--trials", str(trials), "--seed", "5",
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout)["extra"]["outcomes"]

        first = outcomes(3)
        assert first == outcomes(40)[:3]
        assert sum(0.0 < p < 1.0 for o in first for p in o["p"].values()) >= 6

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
            return json.loads(proc.stdout)["extra"]["outcomes"][trial]["p"]

        assert trial_p(3, 1) != trial_p(4, 0)

    def test_reduce_gen_and_accept(self, instance_file, pd_file, tmp_path):
        graph_file = tmp_path / "graph.json"
        proc = run_cli(
            "reduce", "gen", "--kind", "planted", "--n", "16", "--deg", "4",
            "--delta", "0.25", "--seed", "4", "--out", str(graph_file),
        )
        assert proc.returncode == 0, proc.stderr
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["extra"]["graph"]))
        proc = run_cli(
            "reduce", "accept", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file), "--R", "6", "--trials", "20000", "--seed", "5",
        )
        assert proc.returncode == 0, proc.stderr
        extra = json.loads(proc.stdout)["extra"]
        # XOR: every trial reads both positions
        assert extra["positions_per_trial"] == extra["dictator_queries"] / 20000 == 2.0

    def test_reduce_sample(self, instance_file, pd_file, tmp_path):
        graph_file = tmp_path / "graph.json"
        run_cli(
            "reduce", "gen", "--kind", "random-regular", "--n", "12", "--deg", "4",
            "--seed", "6", "--out", str(graph_file),
        )
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["extra"]["graph"]))
        proc = run_cli(
            "reduce", "sample", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file), "--R", "5", "--seed", "7",
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert len(report["extra"]["parts"]) == 2
        assert len(report["extra"]["parts"][0]["B"]) == 5

    def test_reduce_decouple_exact_beyond_r5(self, instance_file, pd_file, tmp_path):
        graph_file = tmp_path / "graph.json"
        run_cli(
            "reduce", "gen", "--kind", "random-regular", "--n", "12", "--deg", "4",
            "--seed", "6", "--out", str(graph_file),
        )
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["extra"]["graph"]))
        proc = run_cli(
            "reduce", "decouple", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file), "--R", "7", "--seed", "8",
        )
        assert proc.returncode == 0, proc.stderr
        exact = json.loads(proc.stdout)
        # arity 2 at R = 7: the contraction's 4^7 entries fit the cap
        assert exact["extra"]["mode"] == "exact" and exact["value"] <= exact["bound"]
        assert exact["stderr"] == 0.0

    def test_reduce_decouple_runs_with_default_flags(self, instance_file, pd_file, tmp_path):
        # the default R must fit the paired tables' cap (MAX_PAIR_R = 8)
        graph_file = tmp_path / "graph.json"
        run_cli("reduce", "gen", "--kind", "planted", "--n", "32", "--out", str(graph_file))
        graph_file.write_text(json.dumps(json.loads(graph_file.read_text())["extra"]["graph"]))
        proc = run_cli(
            "reduce", "decouple", "--instance", str(instance_file), "--pd", str(pd_file),
            "--graph", str(graph_file),
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["extra"]["mode"] == "exact" and report["value"] <= report["bound"]

    def test_reduce_decouple_falls_back_to_monte_carlo_beyond_the_cap(self, tmp_path, capsys):
        # arity 3 at R = 7: the contraction would hold 4^14 > ORACLE_CAP entries
        instance = tmp_path / "instance3.json"
        instance.write_text(json.dumps({
            "predicate": {"arity": 3, "accepting": ["001", "010", "100", "111"]},
            "vertices": [{"id": f"v{i}", "weight": 0.25} for i in range(4)],
            "edges": [{"vs": [f"v{i}", f"v{(i + 1) % 4}", f"v{(i + 2) % 4}"], "weight": 0.25} for i in range(4)],
        }))
        pd = tmp_path / "pd.json"
        pd.write_text(json.dumps({"kind": "product", "mu": 0.5, "level": 6}))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps({"n": 4, "deg": 2, "adj": [[1, 3], [0, 2], [1, 3], [0, 2]]}))
        code, record = run_main(
            capsys, "reduce", "decouple", "--instance", instance, "--pd", pd, "--graph", graph, "--R", 7,
        )
        assert code in (0, 1)
        assert record["extra"]["mode"] == "mc"
        assert 0.0 < record["stderr"] < 1e-3 and 0.0 < record["extra"]["product_stderr"] < 1e-3

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


def run_main(capsys, *argv):
    """In-process CLI run: (exit code, the printed report)."""
    code = cli.main([str(a) for a in argv])
    return code, json.loads(capsys.readouterr().out)


def cycle_instance(n: int) -> dict:
    return {
        "predicate": {"arity": 2, "accepting": ["01", "10"]},
        "vertices": [{"id": f"v{i}", "weight": 1.0 / n} for i in range(n)],
        "edges": [{"vs": [f"v{i}", f"v{(i + 1) % n}"], "weight": 1.0 / n} for i in range(n)],
    }


class TestOversizedLoads:
    """Inputs whose tables would take gigabytes are refused with exit 2
    before anything of that size is allocated."""

    @staticmethod
    def refused(capsys, *argv) -> str:
        with traced_peak() as peak:
            code = cli.main([str(a) for a in argv])
        assert code == 2
        assert peak.bytes < 2 ** 20, peak.bytes
        return json.loads(capsys.readouterr().err)["error"]

    def test_product_over_more_vertices_than_the_joint_cap(self, tmp_path, capsys):
        # a 2^30 joint would take 8 GiB
        inst, pd = tmp_path / "inst.json", tmp_path / "pd.json"
        inst.write_text(json.dumps(cycle_instance(30)))
        pd.write_text(json.dumps({"kind": "product", "mu": 0.5, "level": 6}))
        error = self.refused(capsys, "pd", "verify", "--in", pd, "--instance", inst)
        assert "product over 30 vertices" in error

    @pytest.mark.parametrize("level, size", [(6, 30), (30, 25)])
    def test_json_local_above_its_level_or_the_joint_cap(self, tmp_path, capsys, level, size):
        inst, pd = tmp_path / "inst.json", tmp_path / "pd.json"
        inst.write_text(json.dumps(cycle_instance(30)))
        local = {"subset": [f"v{i}" for i in range(size)], "probs": {"0" * size: 1.0}}
        pd.write_text(json.dumps({"level": level, "locals": [local]}))
        error = self.refused(capsys, "pd", "verify", "--in", pd, "--instance", inst)
        assert f"local over {size} vertices" in error

    def test_arity_above_the_oracle_cap(self, tmp_path, capsys):
        # an edge may repeat a vertex, so two vertices carry an arity-30
        # edge, whose predicate table would hold 2^30 entries
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({
            "predicate": {"arity": 30, "accepting": ["1" * 30]},
            "vertices": [{"id": "a", "weight": 0.5}, {"id": "b", "weight": 0.5}],
            "edges": [{"vs": ["a", "b"] * 15, "weight": 1.0}],
        }))
        error = self.refused(capsys, "csp", "opt", "--mu", "0.5", "--in", inst)
        assert "arity 30" in error


class TestCliRecords:
    @pytest.mark.parametrize("path", [c[0] for c in cli.COMMANDS], ids=" ".join)
    def test_help(self, path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([*path, "--help"])
        assert exc.value.code == 0
        assert "--out" in capsys.readouterr().out

    def test_lambda_bound_outside_premise_is_not_applicable(self, capsys):
        # rho = 0.5 is far above the cap 1/(4 r^2 ln(1/delta)): the bound is not asserted
        code, record = run_main(
            capsys, "gauss", "lambda", "--rho", "0.5", "--deltas", "0.01,0.01",
            "--samples", "20000", "--check-bound",
        )
        assert (code, record["verdict"], record["status"]) == (0, None, "not-applicable")
        assert record["extra"]["applicable"] is False

    @pytest.mark.parametrize("argv", [
        ("gauss", "lambda", "--rho", "0.5", "--deltas", "0.3,0.4"),
        ("gauss", "lambda", "--rho", "0.01", "--deltas", "0.01,0.01", "--check-bound"),
        ("gauss", "borell", "--rho", "0.5", "--functions",
         '[{"kind":"box","lo":[-1,-1],"hi":[1,1]},{"kind":"constant","value":0.5}]'),
    ], ids=["lambda", "lambda-bound", "borell"])
    def test_gauss_records_carry_throughput(self, monkeypatch, capsys, argv):
        cpus(monkeypatch, 2)
        samples = 2 * CHUNK + 1
        _, record = run_main(capsys, *argv, "--samples", samples)
        extra = record["extra"]
        assert extra["threads"] == 2
        assert extra["elapsed_s"] > 0
        assert extra["minor_faults"] >= 0
        # the record's samples per second, also where the check makes several runs
        assert record["samples"] == samples
        assert extra["samples_per_s"] == samples / extra["elapsed_s"]

    def test_decode_stat_checks_the_list_cap(self, instance_file, pd_file, tmp_path, capsys):
        from biascsp.reduction import generate_sse

        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(generate_sse("planted", 8, 2, 0.25, seed=3, eps=0.5).to_json()))
        argv = ("reduce", "decode-stat", "--instance", instance_file, "--pd", pd_file, "--graph", graph,
                "--R", 3, "--samples", 200)
        # the default cap 2/(eta*tau) = 20000 is above the R = 3 entries a list can have
        code, record = run_main(capsys, *argv)
        assert (code, record["verdict"], record["status"]) == (0, True, "vacuous")
        assert record["bound"] == pytest.approx(20000.0)
        assert 0 <= record["value"] <= 3
        assert {"match_prob", "baseline", "respect_violations"} <= set(record["extra"])
        # a cap of 2/0.81 ~ 2.47 below R = 3: the check can fail
        code, record = run_main(capsys, *argv, "--eta", 0.9, "--tau", 0.9)
        assert record["bound"] == pytest.approx(2 / 0.81)
        assert record["status"] in ("pass", "fail") and record["extra"]["vacuous"] is False
        assert record["verdict"] is (record["value"] <= record["bound"])

    def test_infeasible_family_fails(self, instance_file, tmp_path, capsys):
        # each vertex's marginal reads 0.5 alone and 0.6 inside its edges
        singles = [{"subset": [f"v{i}"], "probs": {"0": 0.5, "1": 0.5}} for i in range(4)]
        pairs = [
            {"subset": [f"v{i}", f"v{(i + 1) % 4}"], "probs": {"00": 0.4, "10": 0.3, "11": 0.3}}
            for i in range(4)
        ]
        bad = tmp_path / "bad_pd.json"
        bad.write_text(json.dumps({"level": 2, "locals": singles + pairs}))
        code, record = run_main(capsys, "pd", "verify", "--in", bad, "--instance", instance_file)
        assert (code, record["verdict"], record["status"]) == (1, False, "fail")

    @pytest.mark.parametrize("verdict, status, code", [(True, "fail", 1), (False, "vacuous", 0), (None, "pass", 0)])
    def test_exit_code_reads_status(self, monkeypatch, capsys, verdict, status, code):
        record = {"stage": "s", "verdict": verdict, "status": status}
        monkeypatch.setattr(cli, "run_pipeline", lambda config: {"stages": [record]})
        assert run_main(capsys, "pipeline", "--config", "unused.json")[0] == code

    def test_pd_smooth_checks_the_smoothing(self, instance_file, pd_file, monkeypatch, capsys):
        from biascsp.pseudodist import LocalDistributionFamily

        argv = ("pd", "smooth", "--eta", "0.5", "--mu", "0.2", "--in", pd_file, "--instance", instance_file)
        code, record = run_main(capsys, *argv)
        assert (code, record["status"]) == (0, "pass")
        # product family at 1/2 on a 4-cycle of XOR: objective 1/2, floor (1/2)^2 * 1/2
        assert record["bound"] == pytest.approx(0.125)
        assert record["extra"]["bias"] == pytest.approx(0.35)
        assert "family" in record["extra"]
        # a smoothing that leaves the family as it is misses the bias 0.35
        monkeypatch.setattr(LocalDistributionFamily, "smooth", lambda self, eta, mu: self)
        code, record = run_main(capsys, *argv)
        assert (code, record["verdict"], record["status"]) == (1, False, "fail")

    def test_cli_and_pipeline_report_the_same_fields(self, instance_file, tmp_path, capsys):
        stages = TestPipeline.reduction_stages(tmp_path)
        cfg = json.loads((tmp_path / "config.json").read_text())
        pd = tmp_path / "pd_mixture.json"
        pd.write_text(json.dumps(cfg["pseudodistribution"]))
        spec = cfg["reduction"]["graph"]
        _, gen = run_main(capsys, "reduce", "gen", *(f"--{k}={v}" for k, v in spec.items()))
        graph = tmp_path / "graph.json"
        graph.write_text(json.dumps(gen["extra"]["graph"]))
        ctx = ("--instance", instance_file, "--pd", pd, "--graph", graph, "--R", 4, "--seed", 7)
        runs = {
            "verify-input": ("pd", "verify", "--in", pd, "--instance", instance_file),
            "condition": ("pd", "condition", "--target", 1.0, "--budget", 0, "--in", pd, "--instance", instance_file),
            "reduction-acceptance": ("reduce", "accept", *ctx, "--trials", 2000),
            "mixing": ("reduce", "mix", *ctx, "--a-samples", 20),
        }
        for name, argv in runs.items():
            _, record = run_main(capsys, *argv)
            assert set(record) == set(stages[name]), name
            assert set(record["extra"]) - {"family"} == set(stages[name]["extra"]), name


# ---- the README's CLI examples -------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), flags=re.S)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every ``biascsp`` line of the README's CLI block exits 0 or 1, never 2,
    on the inputs it names: an instance, a family, the README's pipeline
    config, and the graph ``reduce gen`` writes, taken from its
    ``extra.graph`` as the README's note says."""
    monkeypatch.chdir(tmp_path)
    instance = {
        "predicate": {"arity": 2, "accepting": ["01", "10"]},
        "vertices": [{"id": f"v{i}", "weight": 0.25} for i in range(4)],
        "edges": [{"vs": [f"v{i}", f"v{(i + 1) % 4}"], "weight": 0.25} for i in range(4)],
    }
    Path("instance.json").write_text(json.dumps(instance))
    # the uniform distribution, as its locals on every subset
    subsets = [c for k in range(1, 5) for c in itertools.combinations([f"v{i}" for i in range(4)], k)]
    family = {
        "level": 4,
        "locals": [
            {"subset": list(c), "probs": {"".join(b): 0.5 ** len(c) for b in itertools.product("01", repeat=len(c))}}
            for c in subsets
        ],
    }
    Path("pd.json").write_text(json.dumps(family))
    config = next(b for b in readme_blocks("json") if '"pseudodistribution"' in b)
    Path("config.json").write_text(config)
    cli_block = next(b for b in readme_blocks("sh") if "biascsp pipeline" in b)
    lines = [line for line in cli_block.splitlines() if line.startswith("biascsp ")]
    assert len(lines) >= 16
    for line in lines:
        argv = shlex.split(line)[1:]
        code = cli.main(argv)
        out = capsys.readouterr()
        assert code in (0, 1), (line, out.err)
        if argv[:2] == ["reduce", "gen"]:
            graph = Path(argv[argv.index("--out") + 1])
            graph.write_text(json.dumps(json.loads(graph.read_text())["extra"]["graph"]))


# ---- the record keys of every front end ------------------------------------------

# The top-level keys of every stage record below.
RECORD_KEYS = {"stage", "verdict", "status", "value", "bound", "stderr", "seed", "samples", "extra"}
# The ``extra`` keys of each record, by stage name.  Every record built from
# a ``Check`` carries its derived ``vacuous`` flag.
EXTRA_KEYS = {
    "csp-opt": "assignments elapsed_s in_window minor_faults mu witness",
    "pd-verify": "bias elapsed_s minor_faults moment_size objective violations",
    "pd-smooth": "bias elapsed_s eta family minor_faults",
    "pd-condition": "elapsed_s family minor_faults subset trace vacuous values",
    "gauss-lambda": "elapsed_s minor_faults samples_per_s threads",
    "gauss-lambda-bound": "applicable elapsed_s minor_faults preconditions samples_per_s threads vacuous",
    "gauss-borell": "elapsed_s means minor_faults samples_per_s threads vacuous",
    "round-run": "elapsed_s minor_faults outcomes samples_per_s",
    "reduce-gen": "elapsed_s graph minor_faults",
    "reduce-params": "elapsed_s minor_faults params",
    "reduce-sample": "edge elapsed_s minor_faults parts perms",
    "reduce-dictator": "analytic_bias elapsed_s minor_faults sample_values",
    "reduce-accept": (
        "dictator_fallbacks dictator_queries elapsed_s minor_faults objective permuted_rows"
        " positions_per_trial samples_per_s threads vacuous"
    ),
    "reduce-decouple": "elapsed_s max_influence minor_faults mode product_stderr vacuous",
    "reduce-mix": (
        "dictator_fallbacks dictator_queries elapsed_s inner_samples minor_faults permuted_rows samples_per_s"
        " threads threshold vacuous"
    ),
    "reduce-decode-stat": "baseline elapsed_s match_prob minor_faults respect_violations samples_per_s vacuous",
    "verify-input": "bias elapsed_s minor_faults moment_size objective violations",
    "smooth": "bias elapsed_s eta minor_faults",
    "condition": "elapsed_s minor_faults subset trace vacuous values",
    "vector-solution": "elapsed_s minor_faults vacuous",
    "rounding-variance": (
        "deviation_bound deviation_fraction elapsed_s eval_block minor_faults samples_per_s threads vacuous"
    ),
    "rounding-value": (
        "applicable elapsed_s eval_block exact_elapsed_s max_influence minor_faults samples_per_s sigma_value"
        " threads vacuous"
    ),
    "reduction-acceptance": (
        "dictator_fallbacks dictator_queries elapsed_s minor_faults objective permuted_rows"
        " positions_per_trial samples_per_s threads vacuous"
    ),
    "mixing": (
        "dictator_fallbacks dictator_queries elapsed_s inner_samples minor_faults permuted_rows samples_per_s"
        " threads threshold vacuous"
    ),
}


@pytest.fixture(scope="module")
def every_record(tmp_path_factory) -> list[dict]:
    """One record of every CLI subcommand and every stage of one pipeline
    run with rounding and reduction on, all at small sizes."""
    tmp = tmp_path_factory.mktemp("records")
    instance, pd, graph = tmp / "instance.json", tmp / "pd.json", tmp / "graph.json"
    instance.write_text(json.dumps(cycle_instance(4)))
    pd.write_text(json.dumps({"kind": "product", "mu": 0.5, "level": 6}))

    def run(*argv) -> dict:
        out = tmp / "record.json"
        assert cli.main([str(a) for a in argv] + ["--out", str(out)]) in (0, 1), argv
        return json.loads(out.read_text())

    gen = run("reduce", "gen", "--kind", "planted", "--n", 16, "--deg", 4, "--delta", 0.25, "--seed", 3)
    graph.write_text(json.dumps(gen["extra"]["graph"]))
    fam = ("--in", pd, "--instance", instance)
    ctx = ("--instance", instance, "--pd", pd, "--graph", graph)
    functions = '[{"kind":"constant","value":0.4},{"kind":"box","lo":[-1,-1],"hi":[1,1]}]'
    records = [gen] + [run(*argv) for argv in (
        ("csp", "opt", "--mu", "1/2", "--tol", 0, "--in", instance),
        ("pd", "verify", *fam, "--mu", 0.5),
        ("pd", "smooth", "--eta", 0.2, *fam),
        ("pd", "condition", "--target", 0.05, "--budget", 6, *fam),
        ("gauss", "lambda", "--rho", 0.5, "--deltas", "0.5,0.5", "--samples", 20000),
        ("gauss", "lambda", "--rho", 0.01357, "--deltas", "0.01,0.01", "--samples", 20000, "--check-bound"),
        ("gauss", "borell", "--rho", 0.5, "--functions", functions, "--samples", 20000),
        ("round", "run", "--in", instance, "--pd", pd, "--R", 3, "--trials", 8),
        ("reduce", "params", "--mu", 0.3, "--r", 2, "--n-gap", 6, "--delta", 0.25, "--s", 0.5),
        ("reduce", "sample", *ctx, "--R", 4),
        ("reduce", "dictator", *ctx, "--R", 4),
        ("reduce", "accept", *ctx, "--R", 4, "--trials", 2000),
        ("reduce", "decouple", *ctx, "--R", 2),
        ("reduce", "mix", *ctx, "--R", 4, "--a-samples", 20),
        ("reduce", "decode-stat", *ctx, "--R", 3, "--samples", 500),
    )]
    reduction = {
        "graph": str(graph), "params": {"R": 4}, "accept_trials": 2000, "a_samples": 20, "inner_samples": 16,
    }
    rounding = {"enabled": True, "R": 3, "trials": 200, "value_trials": 500}
    config = product_config(tmp, rounding=rounding, reduction=reduction)
    return records + run("pipeline", "--config", config)["stages"]


class TestRecordKeys:
    def test_every_front_end_is_covered(self, every_record):
        names = [r["stage"] for r in every_record]
        assert sorted(names) == sorted(EXTRA_KEYS)
        commands = {"-".join(c[0]) for c in cli.COMMANDS} - {"pipeline"}
        assert commands <= {n.removesuffix("-bound") for n in names}

    def test_each_record_keeps_its_keys(self, every_record):
        for record in every_record:
            assert set(record) == RECORD_KEYS, record["stage"]
            assert set(record["extra"]) == set(EXTRA_KEYS[record["stage"]].split()), record["stage"]

    def test_mc_decoupling_record_adds_samples_and_threads(self):
        # the CLI's reduce decouple is exact at every size its oracle cap
        # lets it build; in Monte Carlo mode the record gains the rate and
        # the thread count
        from biascsp.probspace import BiasedSpace, FunctionTable, PairedSpace
        from biascsp.reduction import ReductionParams, decoupling_check

        space = PairedSpace(BiasedSpace((0.4,) * 2, "bit"), BiasedSpace((0.2,) * 2, "leak"))
        rng = np.random.default_rng(5)
        tables = [FunctionTable(space, rng.random(space.size), bounded=True) for _ in range(2)]
        params = ReductionParams.manual(mu=0.4, r=2, beta=0.2, rho_sq=0.25, R=2, eta=0.01)
        check = decoupling_check(tables, np.array([0.4, 0.2, 0.2, 0.2]), params, mode="mc", samples=4096, seed=6)
        record = meter()(stage("reduce-decouple", check))
        assert set(record["extra"]) == set(EXTRA_KEYS["reduce-decouple"].split()) | {"samples_per_s", "threads"}
        assert record["extra"]["mode"] == "mc" and record["extra"]["threads"] >= 1

    def test_every_record_is_metered(self, every_record):
        # one meter stamps every record: its wall time, its minor faults and,
        # exactly when it has samples, their rate
        for record in every_record:
            extra, name = record["extra"], record["stage"]
            assert extra["elapsed_s"] >= 0.0 and extra["minor_faults"] >= 0, name
            if record["samples"] is None:
                assert "samples_per_s" not in extra, name
            else:
                assert extra["samples_per_s"] == record["samples"] / extra["elapsed_s"], name
