"""End-to-end run management: smoothing, conditioning, vector solution, and
optional rounding / lifted-test experiments, emitting one record per stage.

This module owns the stage record (:func:`stage`) and the builders of the
checks the pipeline and the CLI share (``*_stage``); both front ends emit
only through them and exit by :func:`failed`.  A check that compares one
value with one bound returns a :class:`~biascsp.harness.verdict.Check`,
which derives its verdict, its vacuity and its status; :func:`stage`
serializes it, and a builder adds only its timing and throughput."""
from __future__ import annotations

import json
import resource
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from ..csp import Assignment, ConstraintHypergraph
from ..probspace import BiasedSpace, FunctionTable, domain_points, product_measure
from ..pseudodist import (
    _JOINT_CAP,
    PSD_TOL,
    VECTOR_TOL,
    LocalDistributionFamily,
    find_conditioning,
    vector_solution,
    verify_feasible,
)
from .verdict import Check, status


class ConfigError(ValueError):
    """Malformed or missing configuration input; exits with code 2."""


class StageError(RuntimeError):
    """A pipeline stage failed; the message carries the stage tag."""


def parse_number(text) -> float:
    """Accept decimals and exact 'p/q' rationals."""
    if isinstance(text, (int, float)):
        return float(text)
    text = str(text).strip()
    if "/" in text:
        return float(Fraction(text))
    return float(text)


def stage(
    name: str,
    verdict,
    *,
    value=None,
    bound=None,
    stderr=None,
    seed=None,
    samples=None,
    applicable: bool | None = None,
    vacuous: bool | None = None,
    **extra,
) -> dict:
    """The one report record of a check: the stable keys, the status and,
    when there is any, ``extra``.

    ``verdict`` is a :class:`Check`, whose fields, flags and counters fill
    the record (``extra`` adds to its counters), or a plain verdict: True,
    False, or None for no verdict.  The status is
    :func:`harness.verdict.status`.  ``applicable`` and ``vacuous`` are None
    for a check that has no such flag; a flag that is given feeds the status
    and is kept in ``extra``.
    """
    if isinstance(verdict, Check):
        c = verdict
        return stage(
            name, c.holds, value=c.value, bound=c.bound, stderr=c.stderr, seed=c.seed, samples=c.samples,
            applicable=c.applicable, vacuous=c.vacuous, **c.counters, **extra,
        )
    verdict = None if verdict is None else bool(verdict)
    flags = {"applicable": applicable, "vacuous": vacuous}
    extra.update((k, v) for k, v in flags.items() if v is not None)
    entry = {
        "stage": name,
        "verdict": verdict,
        "status": status(verdict, applicable, vacuous),
        "value": value,
        "bound": bound,
        "stderr": stderr,
        "seed": seed,
        "samples": samples,
    }
    if extra:
        entry["extra"] = extra
    return entry


def failed(records) -> bool:
    """The exit rule of every front end: some record has status ``fail``."""
    return any(r["status"] == "fail" for r in records)


def _load_obj(source, what: str) -> dict:
    if isinstance(source, str):
        path = Path(source)
        if not path.exists():
            raise ConfigError(f"{what}: file {source} not found")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{what}: invalid JSON in {source}: {exc}") from exc
    if isinstance(source, dict):
        return source
    raise ConfigError(f"{what}: expected a path or an inline object")


def load_instance(source) -> ConstraintHypergraph:
    obj = _load_obj(source, "instance")
    try:
        return ConstraintHypergraph.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"instance: missing field {exc}") from exc


def load_family(source, host: ConstraintHypergraph) -> LocalDistributionFamily:
    obj = _load_obj(source, "pseudodistribution")
    kind = obj.get("kind", "file" if isinstance(source, str) else None)
    level = int(obj.get("level", 6))
    if kind == "product":
        n = len(host.vertices)
        if n > _JOINT_CAP:
            raise ConfigError(f"pseudodistribution: a product over {n} vertices exceeds the joint cap {_JOINT_CAP}")
        joint = product_measure([parse_number(obj.get("mu", 0.5))] * n).reshape((2,) * n)
        return LocalDistributionFamily(host, level, {tuple(host.vertices): joint})
    if kind == "mixture":
        support = []
        for item in obj.get("support", []):
            support.append((Assignment({k: int(v) for k, v in item["labels"].items()}), parse_number(item["prob"])))
        if not support:
            raise ConfigError("pseudodistribution: mixture needs a support")
        return LocalDistributionFamily.from_distribution(support, level, host)
    if "locals" in obj:
        return LocalDistributionFamily.from_json(obj, host)
    raise ConfigError("pseudodistribution: unknown kind")


def _vertex_space(mu_v: float, r_dim: int):
    """Conditioning can pin a vertex; a pinned vertex gets a constant table
    on a symmetric-bias space (its fluctuation vector is zero anyway)."""
    pinned = mu_v <= 1e-12 or mu_v >= 1.0 - 1e-12
    bias = 0.5 if pinned else mu_v
    return BiasedSpace((bias,) * r_dim, "bit"), pinned


def build_rounding_tables(source, host, family, r_dim: int) -> dict[str, FunctionTable]:
    obj = _load_obj(source, "rounding functions") if source is not None else {"kind": "dictator"}
    kind = obj.get("kind")
    tables = {}
    if kind == "dictator":
        coord = int(obj.get("coord", 0))
        pts = domain_points(r_dim)
        for v in host.vertices:
            mu_v = family.vertex_mean(v)
            space, pinned = _vertex_space(mu_v, r_dim)
            vals = np.full(2 ** r_dim, round(mu_v)) if pinned else pts[:, coord].astype(float)
            tables[v] = FunctionTable(space, vals, bounded=True)
        return tables
    if kind == "constant":
        for v in host.vertices:
            mu_v = family.vertex_mean(v)
            space, _ = _vertex_space(mu_v, r_dim)
            tables[v] = FunctionTable(space, np.full(2 ** r_dim, mu_v), bounded=True)
        return tables
    if "tables" in obj:
        for v in host.vertices:
            if v not in obj["tables"]:
                raise ConfigError(f"rounding functions: vertex {v} missing")
            mu_v = family.vertex_mean(v)
            space, _ = _vertex_space(mu_v, r_dim)
            tables[v] = FunctionTable(space, obj["tables"][v], bounded=True)
        return tables
    raise ConfigError("rounding functions: unknown kind")


def minor_faults() -> int:
    """Minor page faults of this process so far (``ru_minflt``); a Monte
    Carlo stage record's ``minor_faults`` is their growth over the stage."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _counted(f, run):
    """Run ``run()`` and return its result with the wall time, the minor
    faults and the work the dictator ``f`` did in it: queries, fallbacks,
    and rows that had to be read at an explicit coordinate permutation."""
    def counters():
        return f.dictator.query_count, f.dictator.fallback_count, f.permuted_rows

    before, faults = counters(), minor_faults()
    t0 = time.perf_counter()
    result = run()
    elapsed = time.perf_counter() - t0
    queries, fallbacks, permuted = (b - a for a, b in zip(before, counters()))
    return result, {
        "elapsed_s": elapsed,
        "minor_faults": minor_faults() - faults,
        "dictator_queries": queries,
        "dictator_fallbacks": fallbacks,
        "permuted_rows": permuted,
    }


def verify_stage(name: str, family, mu, seed=None) -> dict:
    """Feasibility of ``family`` at bias ``mu``: consistency and the moment
    matrix's least eigenvalue against ``PSD_TOL``."""
    t0 = time.perf_counter()
    report = verify_feasible(family, mu)
    return stage(
        name,
        report.feasible,
        value=report.min_eigenvalue,
        bound=PSD_TOL,
        seed=seed,
        objective=report.objective,
        bias=report.bias,
        violations=len(report.consistency_violations),
        moment_size=report.moment_size,
        elapsed_s=time.perf_counter() - t0,
    )


def smooth_stage(name: str, family, eta: float, mu=None, seed=None):
    """Smooth ``family`` towards bias ``mu`` (default: its own bias) and check
    that the bias becomes (1-eta)*bias + eta*mu within 1e-9 and that the
    objective keeps at least (1-eta)^r of its value.

    Returns ``(record, smoothed family)``.
    """
    bias_before = family.bias()
    mu = bias_before if mu is None else mu
    obj_before = family.objective()
    smoothed = family.smooth(eta, mu)
    obj_floor = (1.0 - eta) ** family.host.predicate.arity * obj_before
    bias_after, objective = smoothed.bias(), smoothed.objective()
    expected_bias = (1.0 - eta) * bias_before + eta * mu
    verdict = abs(bias_after - expected_bias) <= 1e-9 and objective >= obj_floor - 1e-9
    record = stage(name, verdict, value=objective, bound=obj_floor, seed=seed, bias=bias_after, eta=eta)
    return record, smoothed


def condition_stage(name: str, family, target: float, budget: int, seed=None):
    """Greedy conditioning of ``family`` down to average |correlation|
    ``target`` within ``budget`` pins.  Returns ``(record, conditioned family)``."""
    result = find_conditioning(family, target, budget)
    check = Check(
        result.avg_abs_corr, target, span=(0.0, 1.0), seed=seed,
        counters={"trace": result.trace, "subset": result.subset, "values": result.values},
    )
    return stage(name, check), result.family


def planted_dictator(graph, what: str):
    """The dictator assignment of ``graph``'s planted set."""
    from ..reduction import dictator_assignment

    if not graph.planted:
        raise ConfigError(f"{what} needs a planted graph")
    return dictator_assignment(graph.planted, graph)


def acceptance_stage(name: str, host, family, graph, params, f, trials: int, seed: int) -> dict:
    """Monte Carlo acceptance of the lifted test against the completeness
    bound (``acceptance_estimate``), with its work and throughput.
    ``positions_per_trial`` is the dictator queries per trial: the arity
    when no row settles early, fewer as the predicate settles rows."""
    from ..reduction import acceptance_estimate

    check, work = _counted(f, lambda: acceptance_estimate(host, family, graph, params, f, trials, seed))
    return stage(
        name, check, trials_per_s=trials / work["elapsed_s"],
        positions_per_trial=work["dictator_queries"] / trials, **work,
    )


def mixing_stage(name: str, host, family, graph, params, f, alpha, a_samples: int, seed: int, **kw) -> dict:
    """Concentration of the restriction means (``mixing_check``; ``kw`` goes
    to it), with its work and throughput."""
    from ..reduction import mixing_check

    check, work = _counted(f, lambda: mixing_check(host, family, graph, params, f, alpha, a_samples, seed, **kw))
    return stage(name, check, draws_per_s=check.samples * check.inner_samples / work["elapsed_s"], **work)


def run_pipeline(config) -> dict:
    """Smooth, condition, factor, then run the configured experiments.

    Returns {"stages": [...], "ok": bool}; every stage is a :func:`stage`
    record, and ``ok`` is False exactly when some status is ``fail``.
    Stage failures propagate as :class:`StageError` tagged with the stage.
    """
    cfg = _load_obj(config, "config")
    seed = int(cfg.get("seed", 0))
    stages: list[dict] = []
    current_stage = "load"

    def enter(name: str) -> None:
        nonlocal current_stage
        current_stage = name

    try:
        return _run_pipeline_stages(cfg, seed, stages, enter)
    except (ConfigError, StageError):
        raise
    except Exception as exc:
        raise StageError(f"[stage {current_stage}] {type(exc).__name__}: {exc}") from exc


def _run_pipeline_stages(cfg, seed, stages, enter) -> dict:
    enter("load")
    host = load_instance(cfg.get("instance"))
    family = load_family(cfg.get("pseudodistribution"), host)
    mu_target = parse_number(cfg.get("mu", family.bias()))

    enter("verify-input")
    stages.append(verify_stage("verify-input", family, mu_target, seed))

    enter("smooth")
    smooth_cfg = cfg.get("smooth", {})
    eta_s = parse_number(smooth_cfg.get("eta", 0.1))
    resample_mu = parse_number(smooth_cfg["mu"]) if "mu" in smooth_cfg else None
    record, family = smooth_stage("smooth", family, eta_s, resample_mu, seed)
    stages.append(record)

    enter("condition")
    cond_cfg = cfg.get("condition", {})
    target = parse_number(cond_cfg.get("target", 0.05))
    record, family = condition_stage("condition", family, target, int(cond_cfg.get("budget", 6)), seed)
    stages.append(record)

    enter("vector-solution")
    sol = vector_solution(family)
    stages.append(stage("vector-solution", Check(sol.residual, VECTOR_TOL, seed=seed)))

    enter("rounding")
    round_cfg = cfg.get("rounding")
    if round_cfg and round_cfg.get("enabled", True):
        from ..rounding import RoundingInput, bias_concentration_check, value_check

        r_dim = int(round_cfg.get("R", 4))
        tables = build_rounding_tables(round_cfg.get("functions"), host, family, r_dim)
        inp = RoundingInput(
            host,
            tables,
            sol,
            eta=parse_number(round_cfg.get("eta", 0.01)),
            mu=mu_target,
            family=family,
        )
        budget = parse_number(round_cfg.get("budget", 0.02))
        for name, run in (
            ("rounding-variance", lambda: bias_concentration_check(inp, int(round_cfg.get("trials", 2000)), seed)),
            ("rounding-value", lambda: value_check(inp, int(round_cfg.get("value_trials", 20000)), seed, budget)),
        ):
            faults = minor_faults()
            check = run()
            stages.append(stage(name, check, minor_faults=minor_faults() - faults))

    enter("reduction")
    red_cfg = cfg.get("reduction")
    if red_cfg and red_cfg.get("enabled", True):
        from ..reduction import ReductionParams, SseGraph, generate_sse

        graph_spec = red_cfg.get("graph")
        if isinstance(graph_spec, dict) and "kind" in graph_spec:
            graph = generate_sse(
                graph_spec["kind"],
                int(graph_spec.get("n", 32)),
                int(graph_spec.get("deg", 6)),
                parse_number(graph_spec.get("delta", 0.25)),
                seed=int(graph_spec.get("seed", seed)),
                eps=parse_number(graph_spec.get("eps", 0.05)),
            )
        else:
            graph = SseGraph.from_json(_load_obj(graph_spec, "graph"))
        pspec = red_cfg.get("params", {})
        params = ReductionParams.manual(
            mu=mu_target,
            r=host.predicate.arity,
            beta=parse_number(pspec.get("beta", 0.2)),
            rho_sq=parse_number(pspec.get("rho_sq", 0.25)),
            R=int(pspec.get("R", 10)),
            eta=parse_number(pspec.get("eta", 0.01)),
        )
        f = planted_dictator(graph, "reduction experiments")
        trials = int(red_cfg.get("accept_trials", 100000))
        stages.append(acceptance_stage("reduction-acceptance", host, family, graph, params, f, trials, seed))
        stages.append(
            mixing_stage(
                "mixing",
                host,
                family,
                graph,
                params,
                f,
                alpha=parse_number(red_cfg.get("alpha", 2.0)),
                a_samples=int(red_cfg.get("a_samples", 2000)),
                seed=seed,
                **({"inner_samples": int(red_cfg["inner_samples"])} if "inner_samples" in red_cfg else {}),
            )
        )

    return {"stages": stages, "ok": not failed(stages)}
