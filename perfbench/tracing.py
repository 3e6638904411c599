"""Per-layer spans for the traced run, recorded from outside the library.

:class:`Tracer` wraps the public callables of each ``biascsp`` module at the
names their callers look them up: a module-level function is replaced in
every ``biascsp`` module that binds it (``biascsp.pseudodist`` and
``biascsp.harness.pipeline`` both bind ``verify_feasible``), and a method is
replaced on its class.  Nothing under ``src/`` changes, and leaving the
``with`` block restores every original.

A span records its name, duration and the span that caused it; per name the
tracer keeps calls, inclusive time, self time (inclusive minus the time of
traced callees) and counters the wrappers read from arguments and results.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict

# The layers are the package's modules; a span's layer is its name's prefix.
LAYERS = ("harness", "pseudodist", "rounding", "polynomial", "probspace", "reduction", "csp", "gaussian")

# Spans under the entry point whose time counts as covered by a layer.
ENTRY = "harness.run_pipeline"


def _moment_index(theta) -> int:
    """Rows of the moment matrix verify_feasible builds: subsets of size <= level/2."""
    n = len(theta.host.vertices)
    half = min(max(theta.level // 2, 1), n)
    return sum(math.comb(n, k) for k in range(half + 1))


def _exact_combos(inp) -> int:
    """Combos exact_test_value enumerates: sum over edges of (2^k)^R."""
    return sum((2 ** len(set(vs))) ** inp.r_dim for vs, _ in inp.host.edges)


def _decoupling_combos(tables) -> int:
    """Combos both exact sides of decoupling_check enumerate."""
    r, R = len(tables), tables[0].space.r
    return (4 ** r) ** R + (2 ** r) ** R


# (span name, owner, attribute, hook).  ``owner`` is a module path, or
# ``module:Class`` for a method.  A hook maps (args, result) to the counter
# increments that explain the call.
TARGETS = [
    ("harness.run_pipeline", "biascsp.harness.pipeline", "run_pipeline", None),
    ("harness.load", "biascsp.harness.pipeline", "load_instance", None),
    ("harness.load", "biascsp.harness.pipeline", "load_family", None),
    ("harness.rng_for", "biascsp.harness.rng", "rng_for", None),
    ("pseudodist.verify_feasible", "biascsp.pseudodist", "verify_feasible",
     lambda a, r: {"pseudodist.moment_index": _moment_index(a[0])}),
    ("pseudodist.local", "biascsp.pseudodist:LocalDistributionFamily", "local", None),
    ("pseudodist.condition", "biascsp.pseudodist:LocalDistributionFamily", "condition", None),
    ("pseudodist.smooth", "biascsp.pseudodist:LocalDistributionFamily", "smooth", None),
    ("pseudodist.find_conditioning", "biascsp.pseudodist", "find_conditioning",
     lambda a, r: {"pseudodist.find_conditioning.rounds": len(r.trace)}),
    ("pseudodist.compute_statistics", "biascsp.pseudodist", "compute_statistics", None),
    ("pseudodist.moment_matrix", "biascsp.pseudodist", "moment_matrix", None),
    ("pseudodist.vector_solution", "biascsp.pseudodist", "vector_solution", None),
    ("rounding.RoundingInput", "biascsp.rounding:RoundingInput", "__post_init__", None),
    ("rounding.bias_concentration_check", "biascsp.rounding", "bias_concentration_check",
     lambda a, r: {"rounding.trials": r.trials}),
    ("rounding.value_check", "biascsp.rounding", "value_check",
     lambda a, r: {"rounding.trials": r.trials}),
    ("rounding.exact_test_value", "biascsp.rounding", "exact_test_value",
     lambda a, r: {"rounding.exact_test_value.combos": _exact_combos(a[0])}),
    ("polynomial.evaluate", "biascsp.polynomial:MultilinearPolynomial", "evaluate",
     lambda a, r: {"polynomial.evaluate.points": r.size,
                   "polynomial.evaluate.flops_computed": r.size * 2 ** a[0].nvars}),
    ("probspace.fourier_expand", "biascsp.probspace", "fourier_expand", None),
    ("probspace.noise_apply", "biascsp.probspace", "noise_apply", None),
    ("probspace.max_influence", "biascsp.probspace", "max_influence", None),
    ("reduction.generate_sse", "biascsp.reduction.graphs", "generate_sse", None),
    ("reduction.acceptance_estimate", "biascsp.reduction.analysis", "acceptance_estimate",
     lambda a, r: {"reduction.acceptance_estimate.trials": r.trials}),
    ("reduction.sample_parts", "biascsp.reduction.sampler:BatchTestSampler", "sample_parts", None),
    ("reduction.evaluate_batch", "biascsp.reduction.dictator:LongCodeAssignment", "evaluate_batch", None),
    ("reduction.mixing_check", "biascsp.reduction.analysis", "mixing_check",
     lambda a, r: {"reduction.mixing_check.draws": r.a_samples * r.inner_samples}),
    ("reduction.dictator_assignment", "biascsp.reduction.dictator", "dictator_assignment", None),
    ("reduction.decoupling_check", "biascsp.reduction.analysis", "decoupling_check",
     lambda a, r: {"reduction.decoupling_check.combos": _decoupling_combos(a[0]) if r.mode == "exact" else 0}),
    ("csp.opt_constrained", "biascsp.csp", "opt_constrained",
     lambda a, r: {"csp.opt_constrained.assignments": 2 ** len(a[0].vertices)}),
    ("gaussian.lambda_estimate", "biascsp.gaussian", "lambda_estimate",
     lambda a, r: {"gaussian.lambda_estimate.samples": r.samples}),
    ("gaussian.borell_check", "biascsp.gaussian", "borell_check", None),
]


class Tracer:
    """Records spans of wrapped library calls; use as a context manager."""

    def __init__(self):
        self._restore: list[tuple[object, str, object]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.nested: dict[tuple[str | None, str], int] = defaultdict(int)  # (caller, callee) calls
        self.covered = 0.0  # time in spans at the top or directly under ENTRY
        self.dictators: list = []
        self._stack: list[list] = []  # [name, child time]

    # ---- recording ---------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                tracer.calls[name] += 1
                tracer.nested[(parent, name)] += 1
                tracer.inclusive[name] += dt
                tracer.self_time[name] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if name != ENTRY and (parent is None or parent == ENTRY):
                    tracer.covered += dt
            if hook is not None:
                for key, inc in hook(args, result).items():
                    tracer.counts[key] += inc
            if name == "reduction.dictator_assignment" and result.dictator is not None:
                # the planted dictator counts its queries and fallbacks itself
                tracer.dictators.append(result.dictator)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # ---- installing --------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("biascsp") and m is not None]
        for name, owner, attr, hook in TARGETS:
            mod_name, _, cls_name = owner.partition(":")
            mod = importlib.import_module(mod_name)
            if cls_name:
                cls = getattr(mod, cls_name)
                self._replace(cls, attr, self._wrap(name, cls.__dict__[attr], hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, hook)
            for m in modules:
                for key, obj in list(vars(m).items()):
                    if obj is original:
                        self._replace(m, key, wrapper)
        return self

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __exit__(self, *exc) -> None:
        for owner, attr, old in reversed(self._restore):
            setattr(owner, attr, old)
        self._restore.clear()

    # ---- metrics -----------------------------------------------------------

    def metrics(self, wall_s: float, covered_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything this tracer recorded.

        ``covered_s`` is the part of the traced call's wall time ``wall_s``
        that layer spans cover.  Each value is ``(number, unit)``.
        """
        s = lambda n: (self.inclusive.get(n, 0.0), "s")
        cnt = lambda n: (self.calls.get(n, 0), "count")
        c = self.counts
        rate = lambda num, den: (num / den if den > 0 else 0.0)
        queries = sum(d.query_count for d in self.dictators)
        fallbacks = sum(d.fallback_count for d in self.dictators)
        rounds = c["pseudodist.find_conditioning.rounds"]
        candidates = self.nested.get(("pseudodist.find_conditioning", "pseudodist.condition"), 0)
        rounding_s = (
            self.inclusive.get("rounding.bias_concentration_check", 0.0)
            + self.inclusive.get("rounding.value_check", 0.0)
            - self.inclusive.get("rounding.exact_test_value", 0.0)
        )
        out = {
            "harness.run_pipeline.s": s("harness.run_pipeline"),
            "harness.load.s": s("harness.load"),
            "harness.rng_for.calls": cnt("harness.rng_for"),
            "pseudodist.verify_feasible.s": s("pseudodist.verify_feasible"),
            "pseudodist.local.calls": cnt("pseudodist.local"),
            "pseudodist.moment_index": (c["pseudodist.moment_index"], "count"),
            "pseudodist.find_conditioning.s": s("pseudodist.find_conditioning"),
            "pseudodist.find_conditioning.rounds": (rounds, "count"),
            "pseudodist.find_conditioning.candidates": (candidates, "count"),
            "pseudodist.condition.calls": cnt("pseudodist.condition"),
            "pseudodist.condition.useful_ratio": (rate(rounds, candidates), "ratio"),
            "pseudodist.compute_statistics.s": s("pseudodist.compute_statistics"),
            "pseudodist.compute_statistics.calls": cnt("pseudodist.compute_statistics"),
            "pseudodist.smooth.s": s("pseudodist.smooth"),
            "pseudodist.moment_matrix.s": s("pseudodist.moment_matrix"),
            "pseudodist.vector_solution.s": s("pseudodist.vector_solution"),
            "rounding.RoundingInput.s": s("rounding.RoundingInput"),
            "rounding.bias_concentration_check.s": s("rounding.bias_concentration_check"),
            "rounding.value_check.s": s("rounding.value_check"),
            "rounding.trials_per_s": (rate(c["rounding.trials"], rounding_s), "1/s"),
            "rounding.exact_test_value.s": s("rounding.exact_test_value"),
            "rounding.exact_test_value.combos": (c["rounding.exact_test_value.combos"], "count"),
            "polynomial.evaluate.s": s("polynomial.evaluate"),
            "polynomial.evaluate.points": (c["polynomial.evaluate.points"], "count"),
            "polynomial.evaluate.flops_computed": (c["polynomial.evaluate.flops_computed"], "count"),
            "polynomial.evaluate.bytes_computed": (8 * c["polynomial.evaluate.flops_computed"], "B"),
            "probspace.fourier_expand.s": s("probspace.fourier_expand"),
            "probspace.fourier_expand.calls": cnt("probspace.fourier_expand"),
            "probspace.noise_apply.s": s("probspace.noise_apply"),
            "probspace.max_influence.s": s("probspace.max_influence"),
            "reduction.generate_sse.s": s("reduction.generate_sse"),
            "reduction.acceptance_estimate.s": s("reduction.acceptance_estimate"),
            "reduction.acceptance_estimate.trials_per_s": (
                rate(c["reduction.acceptance_estimate.trials"], self.inclusive.get("reduction.acceptance_estimate", 0.0)),
                "1/s",
            ),
            "reduction.sample_parts.s": s("reduction.sample_parts"),
            "reduction.evaluate_batch.s": s("reduction.evaluate_batch"),
            "reduction.mixing_check.s": s("reduction.mixing_check"),
            "reduction.mixing_check.draws_per_s": (
                rate(c["reduction.mixing_check.draws"], self.inclusive.get("reduction.mixing_check", 0.0)),
                "1/s",
            ),
            "reduction.dictator.queries": (queries, "count"),
            "reduction.dictator.fallbacks": (fallbacks, "count"),
            "reduction.dictator.fallback_ratio": (rate(fallbacks, queries), "ratio"),
            "reduction.decoupling_check.s": s("reduction.decoupling_check"),
            "reduction.decoupling_check.combos": (c["reduction.decoupling_check.combos"], "count"),
            "csp.opt_constrained.s": s("csp.opt_constrained"),
            "csp.opt_constrained.assignments": (c["csp.opt_constrained.assignments"], "count"),
            "gaussian.lambda_estimate.s": s("gaussian.lambda_estimate"),
            "gaussian.lambda_estimate.samples_per_s": (
                rate(c["gaussian.lambda_estimate.samples"], self.inclusive.get("gaussian.lambda_estimate", 0.0)),
                "1/s",
            ),
            "gaussian.borell_check.s": s("gaussian.borell_check"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (
                sum(t for n, t in self.self_time.items() if n.split(".", 1)[0] == layer),
                "s",
            )
        out["trace.coverage"] = (rate(covered_s, wall_s), "ratio")
        return out
