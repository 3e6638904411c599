"""Command-line front end.

Subcommands: csp | pd | gauss | round | reduce | pipeline.  Every numeric flag
accepts decimals or exact 'p/q' rationals; every subcommand takes --out to
write its JSON report.  A report is one stage record (pipeline: a list of
them) with a status of pass, fail, vacuous or not-applicable.  Exit codes:
0 no status is fail, 1 some status is fail, 2 input error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from .mc import ORACLE_CAP
from .pipeline import (
    ConfigError, StageError, acceptance_stage, build_rounding_tables, condition_stage, failed,
    load_family, load_instance, meter, mixing_stage, parse_number, planted_dictator,
    run_pipeline, smooth_stage, stage, verify_stage,
)
from .rng import rng_for


def _num(text: str) -> float:
    try:
        return parse_number(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc


def _json_default(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _cmd_csp_opt(args) -> dict:
    from ..csp import opt_constrained_scan, robust_opt_scan

    g = load_instance(args.infile)
    robust = args.gamma is not None
    scan = robust_opt_scan(g, args.mu, args.gamma) if robust else opt_constrained_scan(g, args.mu, args.tol)
    witness = scan.witness.labels if scan.witness else None
    return stage(
        "csp-opt", scan.feasible, value=scan.value, mu=args.mu, witness=witness,
        assignments=scan.assignments, in_window=scan.in_window,
    )


def _cmd_pd(args) -> dict:
    family = load_family(args.infile, load_instance(args.instance))
    if args.pd_cmd == "verify":
        return verify_stage("pd-verify", family, args.mu)
    if args.pd_cmd == "smooth":
        record, family = smooth_stage("pd-smooth", family, args.eta, args.mu)
    else:
        record, family = condition_stage("pd-condition", family, args.target, args.budget)
    record["extra"]["family"] = family.to_json()  # the transformed family, as an artifact
    return record


def _cmd_gauss_lambda(args) -> dict:
    from ..gaussian import lambda_bound_check, lambda_estimate

    deltas = [parse_number(d) for d in args.deltas.split(",")]
    if args.check_bound:
        return stage("gauss-lambda-bound", lambda_bound_check(args.rho, deltas, args.samples, args.seed, args.delta0))
    est = lambda_estimate(args.rho, deltas, args.samples, args.seed)
    return stage(
        "gauss-lambda", None, value=est.value, stderr=est.stderr, seed=est.seed, samples=est.samples,
        threads=est.threads,
    )


def _cmd_gauss_borell(args) -> dict:
    from ..gaussian import borell_check, box, constant, halfspace

    makers = {
        "halfspace": lambda item: halfspace(item["normal"], parse_number(item["threshold"])),
        "box": lambda item: box(item["lo"], item["hi"]),
        "constant": lambda item: constant(parse_number(item["value"])),
    }
    fns = []
    for item in json.loads(args.functions):
        if item.get("kind") not in makers:
            raise ConfigError(f"unknown function kind {item.get('kind')!r}")
        fns.append(makers[item["kind"]](item))
    return stage("gauss-borell", borell_check(fns, args.dim, args.rho, args.samples, args.seed))


def _cmd_round_run(args) -> dict:
    from ..pseudodist import vector_solution
    from ..rounding import RoundingInput, round_run

    host = load_instance(args.infile)
    family = load_family(args.pd, host)
    tables = build_rounding_tables(args.functions, host, family, args.R)
    inp = RoundingInput(host, tables, vector_solution(family), eta=args.eta, family=family)
    p, sigma, values = round_run(inp, args.trials, args.seed)
    bias = sigma @ host.vertex_weight_vector()
    outcomes = [
        {"p": dict(zip(host.vertices, p[t].tolist())), "sigma": dict(zip(host.vertices, sigma[t].tolist())),
         "bias": float(bias[t]), "value": float(values[t]), "trial": t}
        for t in range(min(args.trials, 32))
    ]
    return stage(
        "round-run", None, value=float(np.mean(values)),
        stderr=float(np.std(values) / max(len(values), 1) ** 0.5),
        seed=args.seed, samples=args.trials, outcomes=outcomes,
    )


def _cmd_reduce_gen(args) -> dict:
    from ..reduction import generate_sse

    g = generate_sse(args.kind, args.n, args.deg, args.delta, args.seed, args.eps)
    return stage("reduce-gen", None, seed=args.seed, graph=g.to_json())


def _cmd_reduce_params(args) -> dict:
    from ..reduction import derive_params

    params = derive_params(args.mu, args.r, args.n_gap, args.delta, args.s)
    return stage("reduce-params", None, params=params.to_json())


def _reduce_ctx(args):
    """(gap instance, family, graph, parameters) of a ``reduce`` subcommand."""
    from ..reduction import ReductionParams, SseGraph

    host = load_instance(args.instance)
    family = load_family(args.pd, host)
    with open(args.graph) as fh:
        graph = SseGraph.from_json(json.load(fh))
    mu = args.mu if args.mu is not None else family.bias()
    params = ReductionParams.manual(
        mu=mu, r=host.predicate.arity, beta=args.beta, rho_sq=args.rho_sq, R=args.R, eta=args.eta
    )
    return host, family, graph, params


def _cmd_reduce_sample(args) -> dict:
    from ..reduction import sample_test_tuple

    host, family, graph, params = _reduce_ctx(args)
    sample = sample_test_tuple(host, family, graph, params, rng_for(args.seed, "cli-sample"))
    parts = [{"B": b.tolist(), "x": x.tolist(), "z": z.tolist()} for b, x, z in sample.parts]
    perms = [p.tolist() for p in sample.perms]
    return stage("reduce-sample", None, seed=args.seed, edge=list(sample.edge), parts=parts, perms=perms)


def _cmd_reduce_dictator(args) -> dict:
    from ..reduction import dictator_assignment

    _, family, graph, params = _reduce_ctx(args)
    planted = [int(v) for v in args.set.split(",")] if args.set else graph.planted
    f = dictator_assignment(planted, graph)
    rng = rng_for(args.seed, "cli-dictator")
    pts = rng.integers(0, graph.n, size=(8, params.R))
    zs = (rng.random((8, params.R)) < params.beta).astype(int)
    xs = (rng.random((8, params.R)) < params.mu).astype(int)
    return stage(
        "reduce-dictator", None, seed=args.seed,
        sample_values=f.evaluate_batch(pts, xs, zs).tolist(), analytic_bias=family.bias(),
    )


def _cmd_reduce_accept(args) -> dict:
    host, family, graph, params = _reduce_ctx(args)
    f = planted_dictator(graph, "acceptance check")
    return acceptance_stage("reduce-accept", host, family, graph, params, f, args.trials, args.seed)


def _cmd_reduce_mix(args) -> dict:
    host, family, graph, params = _reduce_ctx(args)
    f = planted_dictator(graph, "mixing check")
    return mixing_stage("reduce-mix", host, family, graph, params, f, args.alpha, args.a_samples, args.seed)


def _cmd_reduce_decouple(args) -> dict:
    from ..probspace import BiasedSpace, FunctionTable, PairedSpace
    from ..reduction import decoupling_check
    from ..reduction.sampler import edge_block_probs

    host, family, _, params = _reduce_ctx(args)
    rng = rng_for(args.seed, "cli-decouple")
    edge, _ = host.edges[0]
    probs, _ = edge_block_probs(family, edge)
    bits, leaks = (family.vertex_mean(edge[0]),) * params.R, (params.beta,) * params.R
    space = PairedSpace(BiasedSpace(bits, "bit"), BiasedSpace(leaks, "leak"))
    noisy = [np.clip(family.vertex_mean(v) + 0.1 * rng.standard_normal(space.size), 0.0, 1.0) for v in edge]
    tables = [FunctionTable(space, vals, bounded=True) for vals in noisy]
    # exact whenever the contraction's 4^((r-1)R) entries fit the cap
    mode = "exact" if 4 ** ((len(edge) - 1) * params.R) <= ORACLE_CAP else "mc"
    return stage("reduce-decouple", decoupling_check(tables, probs, params, mode=mode, seed=args.seed))


def _cmd_reduce_decode_stat(args) -> dict:
    from ..probspace import BiasedSpace, domain_points
    from ..reduction import influence_decode_stat
    from ..reduction.analysis import _check_decode_size

    _, _, graph, params = _reduce_ctx(args)
    n, R = graph.n, params.R
    _check_decode_size(n, R)
    # the planted dictator family: a vertex-vector with exactly one planted
    # coordinate reads that coordinate's bit, any other is the constant mu
    marked = graph.planted_mask()[np.indices((n,) * R).reshape(R, -1).T]
    dictators = domain_points(R).T.astype(float)[np.argmax(marked, axis=1)]
    tables = np.where(np.count_nonzero(marked, axis=1)[:, None] == 1, dictators, params.mu)
    space = BiasedSpace((params.mu,) * R, "bit")
    check = influence_decode_stat(tables, space, graph, params, args.tau, args.samples, args.seed)
    return stage("reduce-decode-stat", check)


# ---- the parser table ----------------------------------------------------------


def _opt(*names, **kw):
    return names, kw


_OUT, _SEED = _opt("--out", default=None), _opt("--seed", type=int, default=0)
_GAUSS_SAMPLES = _opt("--samples", type=int, default=1 << 20)
_PD = [
    _opt("--in", dest="infile", required=True), _opt("--instance", required=True), _OUT,
    _opt("--mu", type=_num, default=None),
]


def _reduce_flags(R: int) -> list:
    return [
        _opt("--instance", required=True), _opt("--pd", required=True), _opt("--graph", required=True),
        _opt("--mu", type=_num, default=None), _opt("--beta", type=_num, default=0.2),
        _opt("--rho-sq", type=_num, default=0.25), _opt("--R", type=int, default=R),
        _opt("--eta", type=_num, default=0.01), _SEED, _OUT,
    ]


_REDUCE = _reduce_flags(10)
GROUPS = {
    "csp": "constraint hypergraph utilities", "pd": "local-distribution families",
    "gauss": "correlated-Gaussian stability", "round": "Gaussian-projection rounding",
    "reduce": "lifted-test experiments",
}
# (subcommand path, handler, help or None, flags).  A handler returns one
# stage record, which main() meters, or the pipeline's report, whose
# stages the pipeline has metered.
COMMANDS = [
    (("csp", "opt"), _cmd_csp_opt, "exhaustive constrained optimum", [
        _opt("--mu", type=_num, required=True), _opt("--tol", type=_num, default=None),
        _opt("--gamma", type=_num, default=None, help="robust window instead of tol"),
        _opt("--in", dest="infile", required=True), _OUT,
    ]),
    (("pd", "verify"), _cmd_pd, None, _PD),
    (("pd", "smooth"), _cmd_pd, None, _PD + [_opt("--eta", type=_num, required=True)]),
    (("pd", "condition"), _cmd_pd, None, _PD + [
        _opt("--target", type=_num, required=True), _opt("--budget", type=int, required=True),
    ]),
    (("gauss", "lambda"), _cmd_gauss_lambda, None, [
        _opt("--rho", type=_num, required=True),
        _opt("--deltas", required=True, help="comma-separated masses"), _GAUSS_SAMPLES, _SEED,
        _opt("--check-bound", action="store_true"), _opt("--delta0", type=_num, default=1e-2), _OUT,
    ]),
    (("gauss", "borell"), _cmd_gauss_borell, None, [
        _opt("--rho", type=_num, required=True), _opt("--dim", type=int, default=2), _GAUSS_SAMPLES, _SEED,
        _opt("--functions", required=True, help="JSON list of function specs"), _OUT,
    ]),
    (("round", "run"), _cmd_round_run, None, [
        _opt("--in", dest="infile", required=True), _opt("--pd", required=True),
        _opt("--functions", default=None), _opt("--eta", type=_num, default=0.01),
        _opt("--R", type=int, default=4), _opt("--trials", type=int, default=8), _SEED, _OUT,
    ]),
    (("reduce", "gen"), _cmd_reduce_gen, None, [
        _opt("--kind", choices=["planted", "random-regular"], required=True),
        _opt("--n", type=int, default=32), _opt("--deg", type=int, default=6),
        _opt("--delta", type=_num, default=0.25), _opt("--eps", type=_num, default=0.05), _SEED, _OUT,
    ]),
    (("reduce", "params"), _cmd_reduce_params, None, [
        _opt("--mu", type=_num, required=True), _opt("--r", type=int, required=True),
        _opt("--n-gap", type=int, required=True), _opt("--delta", type=_num, required=True),
        _opt("--s", type=_num, required=True), _OUT,
    ]),
    (("reduce", "sample"), _cmd_reduce_sample, None, _REDUCE),
    (("reduce", "dictator"), _cmd_reduce_dictator, None, _REDUCE + [
        _opt("--set", default=None, help="comma-separated planted vertices"),
    ]),
    (("reduce", "accept"), _cmd_reduce_accept, None, _REDUCE + [_opt("--trials", type=int, default=100000)]),
    # decoupling tables live on a PairedSpace, which caps R at MAX_PAIR_R = 8
    (("reduce", "decouple"), _cmd_reduce_decouple, None, _reduce_flags(6)),
    (("reduce", "mix"), _cmd_reduce_mix, None, _REDUCE + [
        _opt("--alpha", type=_num, default=2.0), _opt("--a-samples", type=int, default=2000),
    ]),
    (("reduce", "decode-stat"), _cmd_reduce_decode_stat, None, _REDUCE + [
        _opt("--tau", type=_num, default=0.01), _opt("--samples", type=int, default=5000),
    ]),
    (("pipeline",), lambda a: run_pipeline(a.config), "full pre-processing + experiment run", [
        _opt("--config", required=True), _OUT,
    ]),
]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="biascsp", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    groups = {}
    for path, handler, help_, flags in COMMANDS:
        parent = sub
        if len(path) == 2:
            if path[0] not in groups:
                group = sub.add_parser(path[0], help=GROUPS[path[0]])
                groups[path[0]] = group.add_subparsers(dest=f"{path[0]}_cmd", required=True)
            parent = groups[path[0]]
        q = parent.add_parser(path[-1], **({"help": help_} if help_ else {}))
        for names, kw in flags:
            q.add_argument(*names, **kw)
        q.set_defaults(func=handler)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        stamp = meter()
        report = args.func(args)
        if "stages" not in report:
            stamp(report)
        text = json.dumps(report, indent=2, default=_json_default)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    except (ConfigError, StageError) as exc:
        tag = "pipeline" if isinstance(exc, StageError) else "input"
        print(json.dumps({"stage": tag, "error": str(exc)}), file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps({"stage": "input", "error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2
    print(text)
    return 1 if failed(report.get("stages", [report])) else 0


if __name__ == "__main__":
    sys.exit(main())
