"""Command line front end.

Subcommands: ``solve`` runs one solver on an instance file, ``gen`` writes
a random instance, ``verify`` cross-checks solvers against the reference
oracles on seeded random instances, and ``bench`` times the solver family
on growing trees and prints a CSV.

Exit codes: 0 for a feasible or already satisfied solve, 2 for an
infeasible demand, 1 for any error (bad file, missing parameter, oracle
mismatch in verify).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import bh, linf, oracles
from .errors import BadConfig, MissingParam, SrdTreeError
from .instance import (
    SHAPES,
    GenConfig,
    InstanceFile,
    ProblemParams,
    SplitMix64,
    digest,
    generate,
    parse,
    serialize,
)
from .report import SolveReport, Status
from .tree import srd

PROBLEMS = ("sdipt", "sdiptc", "mcsdipt", "mcsdiptc")
NORMS = ("linf", "bh")

SOLVERS = {
    ("sdipt", "linf"): linf.sdipt_inf,
    ("sdiptc", "linf"): linf.sdiptc_inf,
    ("mcsdipt", "linf"): linf.mcsdipt_inf,
    ("mcsdiptc", "linf"): linf.mcsdiptc_inf,
    ("sdipt", "bh"): bh.sdipt_bh,
    ("sdiptc", "bh"): bh.sdiptc_bh,
    ("mcsdipt", "bh"): bh.mcsdipt_bh,
    ("mcsdiptc", "bh"): bh.mcsdiptc_bh,
}

_NEEDS = {
    "sdipt": ("K",),
    "sdiptc": ("K", "N"),
    "mcsdipt": ("D",),
    "mcsdiptc": ("D", "N"),
}

# Oracle agreement tolerances, shared by verify and the acceptance suite.
GRID_GAP = 1e-3
REL_TOL = 1e-9
ORACLE_CHANGE_CAP = 3  # subset oracle guard for the cardinality demand problem


def _solve_args(problem: str, params: ProblemParams):
    need = _NEEDS[problem]
    values = []
    for name in need:
        value = getattr(params, name)
        if value is None:
            raise MissingParam(name, problem)
        values.append(value)
    return values


def run_solver(problem: str, norm: str, inst: InstanceFile) -> SolveReport:
    """Dispatch one problem on a parsed instance."""
    solver = SOLVERS[(problem, norm)]
    return solver(inst.tree, inst.attrs, *_solve_args(problem, inst.params))


def _fmt_value(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def _emit_report(args, report: SolveReport, elapsed: float, instance_digest: str,
                 out) -> None:
    mods = sorted(report.modified_edges)
    if args.json:
        payload = {
            "problem": args.problem,
            "norm": args.norm,
            "status": report.status.value,
            "objective": None if report.objective == float("inf") else report.objective,
            "cost": None if report.cost == float("inf") else report.cost,
            "modified_edges": mods,
            "iterations": report.iterations,
            "breakpoint": report.breakpoint,
            "wall_time_seconds": elapsed,
            "instance_digest": instance_digest,
        }
        print(json.dumps(payload, sort_keys=True), file=out)
        return
    print(f"problem {args.problem}", file=out)
    print(f"norm {args.norm}", file=out)
    print(f"status {report.status.value}", file=out)
    print(f"objective {_fmt_value(report.objective)}", file=out)
    print(f"cost {_fmt_value(report.cost)}", file=out)
    print(f"modified_edges {','.join(str(e) for e in mods)}", file=out)
    print(f"iterations {report.iterations}", file=out)
    print(f"breakpoint {report.breakpoint}", file=out)
    print(f"wall_time_seconds {elapsed!r}", file=out)
    print(f"instance_digest {instance_digest}", file=out)


def solve_cmd(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    with open(args.instance, "r", encoding="utf-8") as fh:
        text = fh.read()
    inst = parse(text)
    merged = ProblemParams(
        K=args.k if args.k is not None else inst.params.K,
        D=args.d if args.d is not None else inst.params.D,
        N=args.n if args.n is not None else inst.params.N,
    )
    inst = InstanceFile(inst.tree, inst.attrs, merged)

    start = time.perf_counter()
    report = run_solver(args.problem, args.norm, inst)
    elapsed = time.perf_counter() - start

    _emit_report(args, report, elapsed, digest(text), out)
    return 2 if report.status is Status.INFEASIBLE else 0


def gen_cmd(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    text = serialize(generate(GenConfig(node_count=args.nodes, seed=args.seed,
                                        shape=args.shape)))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"path {args.out}", file=out)
        print(f"digest {digest(text)}", file=out)
    else:
        out.write(text)
        print(f"digest {digest(text)}", file=sys.stderr)
    return 0


def _close(a, b, tol=REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_pair(problem: str, norm: str, inst: InstanceFile, trial_changes: int):
    """Solver-vs-oracle comparison for one instance.  Returns (ok, note)."""
    tree, attrs, params = inst.tree, inst.attrs, inst.params
    w_total = srd(tree, attrs.w)
    u_total = srd(tree, attrs.u)

    if norm == "linf":
        if problem == "sdipt":
            rep = linf.sdipt_inf(tree, attrs, params.K)
            ora = oracles.grid_sdipt_inf(tree, attrs, params.K)
            ok = (rep.objective >= ora.objective - GRID_GAP
                  and oracles.witness_feasible(tree, attrs, rep.weights,
                                               budget=params.K, norm="linf"))
            return ok, f"objective {rep.objective} vs grid {ora.objective}"
        if problem == "sdiptc":
            rep = linf.sdiptc_inf(tree, attrs, params.K, params.N)
            ora = oracles.brute_sdiptc_inf(tree, attrs, params.K, params.N)
            return _close(rep.objective, ora.objective), \
                f"objective {rep.objective} vs brute {ora.objective}"
        if problem == "mcsdipt":
            rep = linf.mcsdipt_inf(tree, attrs, params.D)
            if params.D <= w_total:
                return rep.status is Status.ALREADY_SATISFIED and rep.cost == 0, \
                    "demand already met"
            if params.D > u_total:
                return rep.status is Status.INFEASIBLE, "demand unreachable"
            ora = oracles.parametric_mcsdipt_inf(tree, attrs, params.D)
            return _close(rep.cost, ora.objective), \
                f"cost {rep.cost} vs parametric {ora.objective}"
        rep = linf.mcsdiptc_inf(tree, attrs, params.D, trial_changes)
        ora = oracles.brute_mcsdiptc_inf(tree, attrs, params.D, trial_changes)
        if not ora.feasible:
            return rep.status is Status.INFEASIBLE, "oracle infeasible"
        if rep.status is Status.INFEASIBLE:
            return False, f"solver infeasible, oracle cost {ora.objective}"
        return _close(rep.cost, ora.objective), \
            f"cost {rep.cost} vs brute {ora.objective}"

    if problem == "sdipt":
        rep = bh.sdipt_bh(tree, attrs, params.K)
        ora = oracles.brute_bh(tree, attrs, "sdipt", budget=params.K)
        return _close(rep.objective, ora.objective), \
            f"objective {rep.objective} vs brute {ora.objective}"
    if problem == "sdiptc":
        rep = bh.sdiptc_bh(tree, attrs, params.K, params.N)
        ora = oracles.brute_bh(tree, attrs, "sdiptc", budget=params.K,
                               max_changes=params.N)
        return _close(rep.objective, ora.objective), \
            f"objective {rep.objective} vs brute {ora.objective}"
    if problem == "mcsdipt":
        rep = bh.mcsdipt_bh(tree, attrs, params.D)
        ora = oracles.brute_bh(tree, attrs, "mcsdipt", demand=params.D)
    else:
        rep = bh.mcsdiptc_bh(tree, attrs, params.D, trial_changes)
        ora = oracles.brute_bh(tree, attrs, "mcsdiptc", demand=params.D,
                               max_changes=trial_changes)
    if not ora.feasible:
        return rep.status is Status.INFEASIBLE, "oracle infeasible"
    if rep.status is Status.INFEASIBLE:
        return False, f"solver infeasible, oracle cost {ora.objective}"
    # Bottleneck costs are drawn from the cost values themselves, so a
    # correct solver reproduces the oracle cost exactly.
    return rep.cost == ora.objective, f"cost {rep.cost} vs brute {ora.objective}"


def verify_cmd(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.max_n < 2:
        raise BadConfig(f"--max-n {args.max_n} is below 2, the fewest edges a trial draws")
    problems = [args.problem] if args.problem else list(PROBLEMS)
    norms = [args.norm] if args.norm else list(NORMS)
    rng = SplitMix64(args.seed)

    agree = {(p, m): 0 for p in problems for m in norms}
    total = 0
    failed = False
    for trial in range(args.trials):
        edges = 2 + rng.next_int(args.max_n - 1)  # 2..max_n edges
        node_count = edges + 1
        shape = SHAPES[rng.next_int(len(SHAPES))]
        inst_seed = rng.next_u64()
        inst = generate(GenConfig(node_count=node_count, seed=inst_seed,
                                  shape=shape))
        trial_changes = min(inst.params.N, ORACLE_CHANGE_CAP)
        for problem in problems:
            for norm in norms:
                ok, note = _check_pair(problem, norm, inst, trial_changes)
                total += 1
                if ok:
                    agree[(problem, norm)] += 1
                elif not failed:
                    failed = True
                    dump = f"verify_mismatch_{problem}_{norm}.tif"
                    with open(dump, "w", encoding="utf-8") as fh:
                        fh.write(serialize(inst))
                    print(f"mismatch {problem} {norm} trial {trial}: {note}",
                          file=out)
                    print(f"dumped {dump}", file=out)

    for (problem, norm), count in sorted(agree.items()):
        print(f"pair {problem} {norm} agree {count}/{args.trials}", file=out)
    pairs_ok = sum(1 for v in agree.values() if v == args.trials)
    agreed = sum(agree.values())
    print(f"{pairs_ok}/{len(agree)} problems, {agreed}/{total} agree", file=out)
    return 0 if agreed == total else 1


def run_bench(sizes, reps: int, seed: int):
    """Time every solver on generated instances; returns result rows.

    The stopwatch wraps only the solver call.  Instances use the
    uniform-random-parent shape with the generator's parameter draws
    (budget in (0, max raise], demand in [w(T), u(T)), change bound
    uniform in 1..n).
    """
    if reps < 1:
        raise BadConfig(f"--reps {reps} is below 1, so there is nothing to time")
    rng = SplitMix64(seed)
    rows = []
    for size in sizes:
        instances = [generate(GenConfig(node_count=size, seed=rng.next_u64()))
                     for _ in range(reps)]
        for problem in PROBLEMS:
            for norm in NORMS:
                times = []
                for inst in instances:
                    solver = SOLVERS[(problem, norm)]
                    extra = _solve_args(problem, inst.params)
                    start = time.perf_counter()
                    solver(inst.tree, inst.attrs, *extra)
                    times.append(time.perf_counter() - start)
                rows.append({
                    "problem": problem,
                    "norm": norm,
                    "n": size,
                    "reps": reps,
                    "t_mean": sum(times) / len(times),
                    "t_max": max(times),
                    "t_min": min(times),
                })
    return rows


def bench_cmd(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = run_bench(sizes, args.reps, args.seed)
    print("# shape uniform-random-parent; K~U(0,maxF], D~U[w(T),u(T)), N~U{1..n}",
          file=out)
    print("problem,norm,n,reps,t_mean,t_max,t_min", file=out)
    for row in rows:
        print(f"{row['problem']},{row['norm']},{row['n']},{row['reps']},"
              f"{row['t_mean']:.6f},{row['t_max']:.6f},{row['t_min']:.6f}",
              file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srdtree",
        description="Edge-upgrade solvers for the sum of root-leaf distances")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on an instance file")
    p_solve.add_argument("--problem", required=True, choices=PROBLEMS)
    p_solve.add_argument("--norm", required=True, choices=NORMS)
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--k", type=float, default=None, help="budget override")
    p_solve.add_argument("--d", type=float, default=None, help="demand override")
    p_solve.add_argument("--n", type=int, default=None, help="change bound override")
    p_solve.add_argument("--json", action="store_true")
    p_solve.set_defaults(func=solve_cmd)

    p_gen = sub.add_parser("gen", help="generate a random instance file")
    p_gen.add_argument("--nodes", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--shape", choices=SHAPES, default="uniform-random-parent")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=gen_cmd)

    p_verify = sub.add_parser("verify", help="cross-check solvers against oracles")
    p_verify.add_argument("--trials", type=int, required=True)
    p_verify.add_argument("--max-n", type=int, required=True)
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--problem", choices=PROBLEMS, default=None)
    p_verify.add_argument("--norm", choices=NORMS, default=None)
    p_verify.set_defaults(func=verify_cmd)

    p_bench = sub.add_parser("bench", help="time the solvers, print CSV")
    p_bench.add_argument("--sizes", required=True,
                         help="comma separated node counts")
    p_bench.add_argument("--reps", type=int, default=5)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.set_defaults(func=bench_cmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SrdTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
