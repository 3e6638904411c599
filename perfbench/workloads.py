"""The benchmark's workloads: inputs generated from a seed, the timed call,
and the stage values it produces.

Each workload is built in two steps.  ``build(name, seed, size)`` makes every
input from the workload seed (instance, family, graph, parameters); with the
import of the library this is the set-up the benchmark times as ``setup_s``.
The returned :class:`Prepared` holds ``call``, the timed part (one pipeline
or oracle run), and ``stages``, which turns the call's result into stage
records for the output check.  A pipeline workload's inputs are JSON objects
that ``run_pipeline`` loads itself, so that load is part of the timed call;
the oracle workload loads its inputs at build time, as the CLI does before
calling a kernel.

A stage record is ``{"stage", "verdict", "status", "values"}``.  ``values``
maps a value name to ``{"value", "kind", "stderr", "samples"}``; ``kind`` is
``exact`` for deterministic values and ``mc`` for Monte Carlo estimates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

NAMES = ("pd-scale", "round-exact", "reduce-mc", "oracles")

# Per-workload knobs at the benchmark size ("full") and at the self-test size
# ("smoke").  The full sizes are the ones BENCHMARK.json describes.
SIZES = {
    "full": {
        "pd-scale": {"n": 12, "points": 6, "level": 6, "R": 4, "trials": 2000, "value_trials": 20000},
        "round-exact": {"n": 8, "points": 6, "level": 6, "R": 9, "trials": 4000, "value_trials": 40000},
        "reduce-mc": {"graph_n": 32, "R": 40, "accept_trials": 200000, "a_samples": 500, "inner_samples": 512},
        "oracles": {
            "opt_n": 20, "opt_m": 60, "lambda_samples": 10 ** 7, "lambda_r": 3,
            "borell_samples": 10 ** 6, "borell_dim": 4, "decouple_R": 5,
        },
    },
    "smoke": {
        "pd-scale": {"n": 6, "points": 4, "level": 4, "R": 3, "trials": 200, "value_trials": 500},
        "round-exact": {"n": 4, "points": 4, "level": 4, "R": 4, "trials": 200, "value_trials": 500},
        "reduce-mc": {"graph_n": 16, "R": 6, "accept_trials": 4000, "a_samples": 50, "inner_samples": 32},
        "oracles": {
            "opt_n": 8, "opt_m": 12, "lambda_samples": 20000, "lambda_r": 3,
            "borell_samples": 20000, "borell_dim": 2, "decouple_R": 2,
        },
    },
}

# Exact decoupling at arity 2 and R = 6 enumerates 16^6 = 2^24 combos and
# peaks at 5.3 GB (measured on a 2-vCPU Xeon VM with 8 GB), so the benchmark
# refuses any exact path whose computed work reaches this cap, the size of the
# library's exact-enumeration cap (``biascsp.harness.mc.ORACLE_CAP``).
EXACT_WORK_CAP = 1 << 24


class MemoryGuardError(ValueError):
    """An exact path was asked for more work than the benchmark allows."""


def guard_exact(what: str, work: int) -> int:
    """Refuse, before any allocation, an exact enumeration of ``work`` combos."""
    if work >= EXACT_WORK_CAP:
        raise MemoryGuardError(f"{what}: {work} combos reaches the exact-work cap {EXACT_WORK_CAP}")
    return work


@dataclass
class Prepared:
    call: Callable[[], object]
    stages: Callable[[object], list]


def value(v, kind="exact", stderr=None, samples=None) -> dict:
    return {"value": float(v), "kind": kind, "stderr": stderr, "samples": samples}


def stage(name, verdict, values, status=None) -> dict:
    if status is None:
        status = "pass" if verdict is not False else "fail"
    return {"stage": name, "verdict": verdict, "status": status, "values": values}


def _input_rng(name: str, seed: int) -> np.random.Generator:
    """Generator for a workload's inputs; independent of the library's streams."""
    return np.random.default_rng([int(seed), NAMES.index(name)])


def _cycle(n: int, predicate) -> dict:
    from biascsp.csp import ConstraintHypergraph

    verts = {f"v{i}": 1.0 / n for i in range(n)}
    edges = [((f"v{i}", f"v{(i + 1) % n}"), 1.0 / n) for i in range(n)]
    return ConstraintHypergraph(verts, edges, predicate).to_json()


def _mixture(rng, vertices, points: int, level: int) -> dict:
    probs = rng.dirichlet(np.ones(points))
    probs = probs / probs.sum()
    support = []
    for p in probs:
        bits = rng.integers(0, 2, size=len(vertices))
        support.append({"labels": {v: int(b) for v, b in zip(vertices, bits)}, "prob": float(p)})
    return {"kind": "mixture", "level": level, "support": support}


# ---- pipeline workloads ------------------------------------------------------


def _pipeline_config(name: str, seed: int, size: dict) -> dict:
    from biascsp.csp import Predicate

    rng = _input_rng(name, seed)
    if name == "reduce-mc":
        from biascsp.reduction import generate_sse

        instance = _cycle(4, Predicate.and_(2))
        verts = [v["id"] for v in instance["vertices"]]
        family = {
            "kind": "mixture",
            "level": 6,
            "support": [
                {"labels": {v: 1 for v in verts}, "prob": 0.3},
                {"labels": {v: 0 for v in verts}, "prob": 0.7},
            ],
        }
        graph = generate_sse("planted", size["graph_n"], 6, 0.25, seed=int(rng.integers(2 ** 31)))
        return {
            "seed": seed,
            "instance": instance,
            "pseudodistribution": family,
            "smooth": {"eta": 0.1, "mu": 0.3},
            "condition": {"target": 1.0, "budget": 0},
            "rounding": {"enabled": False},
            "reduction": {
                "enabled": True,
                "graph": graph.to_json(),
                "params": {"beta": 0.2, "rho_sq": 0.25, "R": size["R"], "eta": 0.01},
                "accept_trials": size["accept_trials"],
                "alpha": 2.0,
                "a_samples": size["a_samples"],
                "inner_samples": size["inner_samples"],
            },
        }
    instance = _cycle(size["n"], Predicate.xor(2))
    verts = [v["id"] for v in instance["vertices"]]
    family = _mixture(rng, verts, size["points"], size["level"])
    # Low-influence rounding tables: the value check's guarantee assumes them
    # (a dictator table has influence 1 and fails it on some seeds).
    centers = rng.uniform(0.3, 0.7, size=len(verts))
    tables = {
        v: np.clip(c + 0.05 * rng.standard_normal(2 ** size["R"]), 0.0, 1.0).tolist()
        for v, c in zip(verts, centers)
    }
    # Budget 4 is the most a level-6 family allows; 7 of 300 seeds need the
    # fourth round to reach 0.02, so a budget of 3 fails on them.
    conditioning = (
        {"target": 0.02, "budget": 4} if name == "pd-scale" else {"target": 1.0, "budget": 0}
    )
    return {
        "seed": seed,
        "instance": instance,
        "pseudodistribution": family,
        "smooth": {"eta": 0.1},
        "condition": conditioning,
        "rounding": {
            "enabled": True,
            "R": size["R"],
            "functions": {"tables": tables},
            "trials": size["trials"],
            "value_trials": size["value_trials"],
        },
        "reduction": {"enabled": False},
    }


def _pipeline_stages(report: dict) -> list:
    out = []
    for s in report["stages"]:
        name, extra = s["stage"], s.get("extra", {})
        status = None
        if name == "verify-input":
            values = {"min_eigenvalue": value(s["value"]), "objective": value(extra["objective"])}
        elif name in ("smooth", "condition", "vector-solution"):
            values = {"value": value(s["value"])}
        elif name == "rounding-value":
            values = {
                "value": value(s["value"], "mc", s["stderr"], s["samples"]),
                "exact_test_value": value(s["bound"]),
            }
        elif name == "reduction-acceptance":
            values = {"value": value(s["value"], "mc", s["stderr"], s["samples"])}
            # A completeness bound <= 0 passes every estimate: no credit.
            if s["bound"] <= 0.0:
                status = "vacuous"
        else:  # rounding-variance, mixing
            values = {"value": value(s["value"], "mc", s["stderr"], s["samples"])}
        out.append(stage(name, s["verdict"], values, status))
    return out


def _build_pipeline(name: str, seed: int, size: dict) -> Prepared:
    from biascsp.harness import pipeline

    cfg = _pipeline_config(name, seed, size)
    rounding = cfg["rounding"]
    if rounding.get("enabled"):
        combos = sum((2 ** len(set(e["vs"]))) ** rounding["R"] for e in cfg["instance"]["edges"])
        guard_exact("exact_test_value", combos)

    def call():
        return pipeline.run_pipeline(cfg)

    return Prepared(call, _pipeline_stages)


# ---- oracle workload -----------------------------------------------------------


def _lambda_quadrature(rho: float, deltas) -> float:
    """Pr[h_i <= q(delta_i) for all i] for shared-source copies, by quadrature
    over the shared coordinate; independent of the sampler."""
    from statistics import NormalDist

    nd = NormalDist()
    t = np.array([nd.inv_cdf(d) for d in deltas])
    g = np.linspace(-9.0, 9.0, 18001)
    s = math.sqrt(1.0 - rho * rho)
    erf = np.vectorize(math.erf)
    inner = np.ones_like(g)
    for ti in t:
        inner *= 0.5 * (1.0 + erf((ti - rho * g) / (s * math.sqrt(2.0))))
    dens = np.exp(-0.5 * g * g) / math.sqrt(2.0 * math.pi)
    return float(np.trapezoid(dens * inner, g))


def _build_oracles(name: str, seed: int, size: dict) -> Prepared:
    from biascsp import csp, gaussian, reduction
    from biascsp.csp import ConstraintHypergraph, Predicate, assignment_value, relative_weight
    from biascsp.gaussian import box, halfspace
    from biascsp.harness import pipeline
    from biascsp.probspace import BiasedSpace, FunctionTable, PairedSpace
    from biascsp.reduction import ReductionParams
    from biascsp.reduction.sampler import edge_block_probs

    rng = _input_rng(name, seed)

    # csp opt: random XOR instance, exhaustive constrained optimum at mu = 1/2
    n, m = size["opt_n"], size["opt_m"]
    verts = [f"v{i}" for i in range(n)]
    pairs = [tuple(rng.choice(n, size=2, replace=False)) for _ in range(m)]
    opt_host = pipeline.load_instance(
        ConstraintHypergraph(
            {v: 1.0 / n for v in verts},
            [((verts[a], verts[b]), 1.0 / m) for a, b in pairs],
            Predicate.xor(2),
        ).to_json()
    )

    # gauss lambda: r copies at correlation rho, masses from the seed
    rho = 0.5
    deltas = [float(d) for d in rng.uniform(0.3, 0.7, size=size["lambda_r"])]
    lam_seed = int(rng.integers(2 ** 31))

    # gauss borell: a halfspace and a box, far from the extremal pair
    dim = size["borell_dim"]
    normal = rng.standard_normal(dim)
    functions = [halfspace(normal, float(rng.uniform(-0.5, 0.5))), box([-1.0] * dim, [1.0] * dim)]
    borell_seed = int(rng.integers(2 ** 31))

    # reduce decouple --exact: tables around the vertex means of a random family
    R = size["decouple_R"]
    guard_exact("decoupling_check", (4 ** 2) ** R)
    gap = pipeline.load_instance(_cycle(4, Predicate.xor(2)))
    family = pipeline.load_family(_mixture(rng, gap.vertices, 6, 6), gap).smooth(0.2, 0.5)
    edge = gap.edges[0][0]
    block_probs, _ = edge_block_probs(family, edge)
    params = ReductionParams.manual(mu=family.bias(), r=2, beta=0.2, rho_sq=0.25, R=R, eta=0.01)
    space = PairedSpace(
        BiasedSpace((family.vertex_mean(edge[0]),) * R, "bit"), BiasedSpace((0.2,) * R, "leak")
    )
    tables = [
        FunctionTable(
            space,
            np.clip(family.vertex_mean(v) + 0.1 * rng.standard_normal(space.size), 0.0, 1.0),
            bounded=True,
        )
        for v in edge
    ]

    def call():
        # module-attribute lookups, so the traced run's wrappers are seen
        return (
            csp.opt_constrained(opt_host, 0.5),
            gaussian.lambda_estimate(rho, deltas, size["lambda_samples"], lam_seed),
            gaussian.borell_check(functions, dim, rho, size["borell_samples"], borell_seed),
            reduction.decoupling_check(tables, block_probs, params, mode="exact"),
        )

    def stages(result) -> list:
        (opt, witness, feasible), lam, bor, dec = result
        # the witness must realize the optimum inside the bias window
        tol = 0.5 * min(opt_host.vertex_weights.values())
        witness_ok = bool(
            feasible
            and abs(assignment_value(opt_host, witness) - opt) <= 1e-12
            and abs(relative_weight(opt_host, witness) - 0.5) <= tol + 1e-9
        )
        lam_exact = _lambda_quadrature(rho, deltas)
        lam_ok = abs(lam.value - lam_exact) <= 4.0 * max(lam.stderr, 1.0 / lam.samples)
        return [
            stage("csp-opt", witness_ok, {"value": value(opt)}),
            stage("gauss-lambda", lam_ok, {"value": value(lam.value, "mc", lam.stderr, lam.samples)}),
            stage(
                "gauss-borell",
                bor.holds,
                {
                    "joint": value(bor.joint.value, "mc", bor.joint.stderr, bor.joint.samples),
                    "stability": value(
                        bor.stability_bound.value, "mc", bor.stability_bound.stderr,
                        bor.stability_bound.samples,
                    ),
                },
            ),
            stage("reduce-decouple", dec.holds, {"lhs": value(dec.lhs), "rhs": value(dec.rhs)}),
        ]

    return Prepared(call, stages)


def build(name: str, seed: int, size: str = "full") -> Prepared:
    """Make the workload's inputs from ``seed`` and load them."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    knobs = SIZES[size][name]
    if name == "oracles":
        return _build_oracles(name, seed, knobs)
    return _build_pipeline(name, seed, knobs)
