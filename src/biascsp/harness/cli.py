"""Command-line front end.

Subcommands: csp | pd | gauss | round | reduce | pipeline.  Every numeric flag
accepts decimals or exact 'p/q' rationals; every subcommand takes --out to
write its JSON report.  Exit codes: 0 all verdicts pass, 1 some verdict
failed, 2 input error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .pipeline import (
    ConfigError,
    StageError,
    build_rounding_tables,
    load_family,
    load_instance,
    parse_number,
    run_pipeline,
)


def _num(text: str) -> float:
    try:
        return parse_number(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc


def _emit(report, out_path, ok: bool) -> int:
    def default(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, (np.integer, np.floating, np.bool_)):
            return obj.item()
        raise TypeError(f"not serializable: {type(obj)}")

    text = json.dumps(report, indent=2, default=default)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if ok else 1


def _cmd_csp_opt(args) -> int:
    from ..csp import opt_constrained_scan, robust_opt_scan

    g = load_instance(args.infile)
    t0 = time.perf_counter()
    if args.gamma is not None:
        scan = robust_opt_scan(g, args.mu, args.gamma)
    else:
        scan = opt_constrained_scan(g, args.mu, args.tol)
    elapsed = time.perf_counter() - t0
    report = {
        "stage": "csp-opt",
        "verdict": scan.feasible,
        "value": scan.value,
        "mu": args.mu,
        "witness": scan.witness.labels if scan.witness else None,
        "assignments": scan.assignments,
        "in_window": scan.in_window,
        "elapsed_s": elapsed,
    }
    return _emit(report, args.out, scan.feasible)


def _cmd_pd(args) -> int:
    from ..pseudodist import find_conditioning, verify_feasible

    host = load_instance(args.instance)
    family = load_family(args.infile, host)
    if args.pd_cmd == "verify":
        rep = verify_feasible(family, args.mu)
        report = {
            "stage": "pd-verify",
            "verdict": rep.feasible,
            "value": rep.min_eigenvalue,
            "bias": rep.bias,
            "objective": rep.objective,
            "violations": rep.consistency_violations,
        }
        return _emit(report, args.out, rep.feasible)
    if args.pd_cmd == "smooth":
        mu = args.mu if args.mu is not None else family.bias()
        out_family = family.smooth(args.eta, mu)
        report = {
            "stage": "pd-smooth",
            "verdict": True,
            "bias": out_family.bias(),
            "objective": out_family.objective(),
            "family": out_family.to_json(),
        }
        return _emit(report, args.out, True)
    if args.pd_cmd == "condition":
        res = find_conditioning(family, args.target, args.budget)
        report = {
            "stage": "pd-condition",
            "verdict": res.success,
            "value": res.family.statistics().avg_abs_corr,
            "bound": args.target,
            "subset": res.subset,
            "values": res.values,
            "trace": res.trace,
            "family": res.family.to_json(),
        }
        return _emit(report, args.out, res.success)
    raise ConfigError(f"unknown pd subcommand {args.pd_cmd}")


def _cmd_gauss(args) -> int:
    from ..gaussian import borell_check, box, halfspace, lambda_bound_check, lambda_estimate

    if args.gauss_cmd == "lambda":
        deltas = [parse_number(d) for d in args.deltas.split(",")]
        if args.check_bound:
            rep = lambda_bound_check(args.rho, deltas, args.samples, args.seed, delta0=args.delta0)
            report = {
                "stage": "gauss-lambda-bound",
                "verdict": rep.holds,
                "value": rep.estimate.value,
                "stderr": rep.estimate.stderr,
                "bound": rep.bound,
                "samples": args.samples,
                "seed": args.seed,
                "applicable": rep.applicable,
                "preconditions": rep.preconditions,
            }
            return _emit(report, args.out, rep.holds is not False)
        est = lambda_estimate(args.rho, deltas, args.samples, args.seed)
        report = {
            "stage": "gauss-lambda",
            "verdict": True,
            "value": est.value,
            "stderr": est.stderr,
            "samples": est.samples,
            "seed": est.seed,
        }
        return _emit(report, args.out, True)
    if args.gauss_cmd == "borell":
        spec = json.loads(args.functions)
        fns = []
        for item in spec:
            kind = item.get("kind")
            if kind == "halfspace":
                fns.append(halfspace(item["normal"], parse_number(item["threshold"])))
            elif kind == "box":
                fns.append(box(item["lo"], item["hi"]))
            elif kind == "constant":
                from ..gaussian import constant

                fns.append(constant(parse_number(item["value"])))
            else:
                raise ConfigError(f"unknown function kind {kind!r}")
        rep = borell_check(fns, args.dim, args.rho, args.samples, args.seed)
        report = {
            "stage": "gauss-borell",
            "verdict": rep.holds,
            "value": rep.joint.value,
            "bound": rep.stability_bound.value,
            "stderr": rep.sigma_total,
            "samples": args.samples,
            "seed": args.seed,
            "means": rep.means,
        }
        return _emit(report, args.out, rep.holds)
    raise ConfigError(f"unknown gauss subcommand {args.gauss_cmd}")


def _cmd_round(args) -> int:
    from ..pseudodist import vector_solution
    from ..rounding import RoundingInput, round_with
    from .rng import rng_for

    host = load_instance(args.infile)
    family = load_family(args.pd, host)
    sol = vector_solution(family)
    tables = build_rounding_tables(args.functions, host, family, args.R)
    inp = RoundingInput(host, tables, sol, eta=args.eta, family=family)
    outcomes = []
    for t in range(args.trials):
        out = round_with(inp, rng_for(args.seed, "round-once", t), args.seed)
        outcomes.append(
            {
                "p": out.p,
                "sigma": out.sigma.labels,
                "bias": out.bias,
                "value": out.value,
                "seed": out.seed,
                "trial": t,
            }
        )
    values = [o["value"] for o in outcomes]
    report = {
        "stage": "round-run",
        "verdict": True,
        "value": float(np.mean(values)),
        "stderr": float(np.std(values) / max(len(values), 1) ** 0.5),
        "samples": args.trials,
        "seed": args.seed,
        "outcomes": outcomes if args.trials <= 32 else outcomes[:32],
    }
    return _emit(report, args.out, True)


def _load_reduce_ctx(args):
    from ..reduction import ReductionParams, SseGraph

    host = load_instance(args.instance)
    family = load_family(args.pd, host)
    with open(args.graph) as fh:
        graph = SseGraph.from_json(json.load(fh))
    params = ReductionParams.manual(
        mu=args.mu if args.mu is not None else family.bias(),
        r=host.predicate.arity,
        beta=args.beta,
        rho_sq=args.rho_sq,
        R=args.R,
        eta=args.eta,
    )
    return host, family, graph, params


def _cmd_reduce(args) -> int:
    from ..reduction import (
        acceptance_estimate,
        decoupling_check,
        dictator_assignment,
        generate_sse,
        mixing_check,
        sample_test_tuple,
    )
    from ..reduction.sampler import edge_block_probs
    from .rng import rng_for

    if args.reduce_cmd == "gen":
        g = generate_sse(args.kind, args.n, args.deg, args.delta, args.seed, args.eps)
        report = {"stage": "reduce-gen", "verdict": True, "graph": g.to_json()}
        return _emit(report, args.out, True)
    if args.reduce_cmd == "params":
        from ..reduction import derive_params

        params = derive_params(args.mu, args.r, args.n_gap, args.delta, args.s)
        report = {"stage": "reduce-params", "verdict": True, "params": params.to_json()}
        return _emit(report, args.out, True)

    host, family, graph, params = _load_reduce_ctx(args)
    if args.reduce_cmd == "sample":
        rng = rng_for(args.seed, "cli-sample")
        sample = sample_test_tuple(host, family, graph, params, rng)
        report = {
            "stage": "reduce-sample",
            "verdict": True,
            "edge": list(sample.edge),
            "parts": [
                {"B": b.tolist(), "x": x.tolist(), "z": z.tolist()} for b, x, z in sample.parts
            ],
            "perms": [p.tolist() for p in sample.perms],
        }
        return _emit(report, args.out, True)
    if args.reduce_cmd == "dictator":
        planted = [int(v) for v in args.set.split(",")] if args.set else graph.planted
        f = dictator_assignment(planted, params, graph)
        rng = rng_for(args.seed, "cli-dictator")
        pts = rng.integers(0, graph.n, size=(8, params.R))
        zs = (rng.random((8, params.R)) < params.beta).astype(int)
        xs = (rng.random((8, params.R)) < params.mu).astype(int)
        report = {
            "stage": "reduce-dictator",
            "verdict": True,
            "sample_values": f.evaluate_batch(pts, xs, zs).tolist(),
            "analytic_bias": family.bias(),
        }
        return _emit(report, args.out, True)
    if args.reduce_cmd == "accept":
        planted = graph.planted
        if planted is None:
            raise ConfigError("acceptance check needs a planted graph")
        f = dictator_assignment(planted, params, graph)
        rep = acceptance_estimate(
            host, family, graph, params, f, args.trials, args.seed, assert_bound=True
        )
        return _emit({"stage": "reduce-accept", **rep.to_json()}, args.out, rep.holds is not False)
    if args.reduce_cmd == "decouple":
        from ..probspace import BiasedSpace, FunctionTable, PairedSpace

        rng = rng_for(args.seed, "cli-decouple")
        edge, _ = host.edges[0]
        probs, _ = edge_block_probs(family, edge)
        space = PairedSpace(
            BiasedSpace((family.vertex_mean(edge[0]),) * params.R, "bit"),
            BiasedSpace((params.beta,) * params.R, "leak"),
        )
        tables = []
        for v in edge:
            base = family.vertex_mean(v)
            vals = np.clip(base + 0.1 * rng.standard_normal(space.size), 0.0, 1.0)
            tables.append(FunctionTable(space, vals, bounded=True))
        rep = decoupling_check(
            tables, probs, params, mode="exact" if args.exact else "mc", seed=args.seed
        )
        report = {
            "stage": "reduce-decouple",
            "verdict": rep.holds,
            "value": rep.lhs,
            "bound": rep.rhs,
            "max_influence": rep.max_influence,
            "mode": rep.mode,
        }
        return _emit(report, args.out, rep.holds)
    if args.reduce_cmd == "mix":
        planted = graph.planted or []
        f = dictator_assignment(planted, params, graph) if planted else None
        if f is None:
            raise ConfigError("mixing check needs a planted graph")
        rep = mixing_check(
            host, family, graph, params, f, args.alpha, args.a_samples, args.seed
        )
        report = {
            "stage": "reduce-mix",
            "verdict": rep.holds,
            "value": rep.fraction,
            "bound": rep.bound,
            "stderr": rep.fraction_stderr,
            "samples": rep.a_samples,
            "seed": args.seed,
        }
        return _emit(report, args.out, rep.holds)
    if args.reduce_cmd == "decode-stat":
        from ..reduction import influence_decode_stat
        from ..probspace import BiasedSpace, FunctionTable, domain_points

        mask = graph.planted_mask()
        mu = params.mu
        space = BiasedSpace((mu,) * params.R, "bit")
        pts = domain_points(params.R)

        def family_tables(pt):
            marked = np.flatnonzero(mask[np.asarray(pt)])
            if len(marked) == 1:
                return FunctionTable(space, pts[:, marked[0]].astype(float), bounded=True)
            return FunctionTable(space, np.full(2 ** params.R, mu), bounded=True)

        rep = influence_decode_stat(
            family_tables, graph, params, args.tau, args.samples, args.seed
        )
        report = {
            "stage": "reduce-decode-stat",
            "verdict": rep.list_cap_holds,
            "value": rep.match_prob,
            "stderr": rep.stderr,
            "baseline": rep.baseline,
            "max_list_size": rep.max_list_size,
            "samples": rep.samples,
            "seed": args.seed,
        }
        return _emit(report, args.out, rep.list_cap_holds)
    raise ConfigError(f"unknown reduce subcommand {args.reduce_cmd}")


def _cmd_pipeline(args) -> int:
    report = run_pipeline(args.config)
    return _emit(report, args.out, report["ok"])


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="biascsp", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("csp", help="constraint hypergraph utilities")
    csub = sp.add_subparsers(dest="csp_cmd", required=True)
    c_opt = csub.add_parser("opt", help="exhaustive constrained optimum")
    c_opt.add_argument("--mu", type=_num, required=True)
    c_opt.add_argument("--tol", type=_num, default=None)
    c_opt.add_argument("--gamma", type=_num, default=None, help="robust window instead of tol")
    c_opt.add_argument("--in", dest="infile", required=True)
    c_opt.add_argument("--out", default=None)
    c_opt.set_defaults(func=_cmd_csp_opt)

    sp = sub.add_parser("pd", help="local-distribution families")
    psub = sp.add_subparsers(dest="pd_cmd", required=True)
    for name in ("verify", "smooth", "condition"):
        q = psub.add_parser(name)
        q.add_argument("--in", dest="infile", required=True)
        q.add_argument("--instance", required=True)
        q.add_argument("--out", default=None)
        q.add_argument("--mu", type=_num, default=None)
        if name == "smooth":
            q.add_argument("--eta", type=_num, required=True)
        if name == "condition":
            q.add_argument("--target", type=_num, required=True)
            q.add_argument("--budget", type=int, required=True)
        q.set_defaults(func=_cmd_pd)

    sp = sub.add_parser("gauss", help="correlated-Gaussian stability")
    gsub = sp.add_subparsers(dest="gauss_cmd", required=True)
    gl = gsub.add_parser("lambda")
    gl.add_argument("--rho", type=_num, required=True)
    gl.add_argument("--deltas", required=True, help="comma-separated masses")
    gl.add_argument("--samples", type=int, default=1 << 20)
    gl.add_argument("--seed", type=int, default=0)
    gl.add_argument("--check-bound", action="store_true")
    gl.add_argument("--delta0", type=_num, default=1e-2)
    gl.add_argument("--out", default=None)
    gl.set_defaults(func=_cmd_gauss)
    gb = gsub.add_parser("borell")
    gb.add_argument("--rho", type=_num, required=True)
    gb.add_argument("--dim", type=int, default=2)
    gb.add_argument("--samples", type=int, default=1 << 20)
    gb.add_argument("--seed", type=int, default=0)
    gb.add_argument("--functions", required=True, help="JSON list of function specs")
    gb.add_argument("--out", default=None)
    gb.set_defaults(func=_cmd_gauss)

    sp = sub.add_parser("round", help="Gaussian-projection rounding")
    rsub = sp.add_subparsers(dest="round_cmd", required=True)
    rr = rsub.add_parser("run")
    rr.add_argument("--in", dest="infile", required=True)
    rr.add_argument("--pd", required=True)
    rr.add_argument("--functions", default=None)
    rr.add_argument("--eta", type=_num, default=0.01)
    rr.add_argument("--R", type=int, default=4)
    rr.add_argument("--trials", type=int, default=8)
    rr.add_argument("--seed", type=int, default=0)
    rr.add_argument("--out", default=None)
    rr.set_defaults(func=_cmd_round)

    sp = sub.add_parser("reduce", help="lifted-test experiments")
    xsub = sp.add_subparsers(dest="reduce_cmd", required=True)
    xg = xsub.add_parser("gen")
    xg.add_argument("--kind", choices=["planted", "random-regular"], required=True)
    xg.add_argument("--n", type=int, default=32)
    xg.add_argument("--deg", type=int, default=6)
    xg.add_argument("--delta", type=_num, default=0.25)
    xg.add_argument("--eps", type=_num, default=0.05)
    xg.add_argument("--seed", type=int, default=0)
    xg.add_argument("--out", default=None)
    xg.set_defaults(func=_cmd_reduce)
    xp = xsub.add_parser("params")
    xp.add_argument("--mu", type=_num, required=True)
    xp.add_argument("--r", type=int, required=True)
    xp.add_argument("--n-gap", type=int, required=True)
    xp.add_argument("--delta", type=_num, required=True)
    xp.add_argument("--s", type=_num, required=True)
    xp.add_argument("--out", default=None)
    xp.set_defaults(func=_cmd_reduce)
    for name in ("sample", "dictator", "accept", "decouple", "mix", "decode-stat"):
        q = xsub.add_parser(name)
        q.add_argument("--instance", required=True)
        q.add_argument("--pd", required=True)
        q.add_argument("--graph", required=True)
        q.add_argument("--mu", type=_num, default=None)
        q.add_argument("--beta", type=_num, default=0.2)
        q.add_argument("--rho-sq", type=_num, default=0.25)
        q.add_argument("--R", type=int, default=10)
        q.add_argument("--eta", type=_num, default=0.01)
        q.add_argument("--seed", type=int, default=0)
        q.add_argument("--out", default=None)
        if name == "dictator":
            q.add_argument("--set", default=None, help="comma-separated planted vertices")
        if name == "accept":
            q.add_argument("--trials", type=int, default=100000)
        if name == "decouple":
            q.add_argument("--exact", action="store_true")
        if name == "mix":
            q.add_argument("--alpha", type=_num, default=2.0)
            q.add_argument("--a-samples", type=int, default=2000)
        if name == "decode-stat":
            q.add_argument("--tau", type=_num, default=0.01)
            q.add_argument("--samples", type=int, default=5000)
        q.set_defaults(func=_cmd_reduce)

    sp = sub.add_parser("pipeline", help="full pre-processing + experiment run")
    sp.add_argument("--config", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=_cmd_pipeline)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"stage": "input", "error": str(exc)}), file=sys.stderr)
        return 2
    except StageError as exc:
        print(json.dumps({"stage": "pipeline", "error": str(exc)}), file=sys.stderr)
        return 2
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(json.dumps({"stage": "input", "error": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
