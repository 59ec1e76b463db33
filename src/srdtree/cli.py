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
import math
import sys
import time
from dataclasses import replace

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
    for name in _NEEDS[problem]:
        if getattr(params, name) is None:
            raise MissingParam(name, problem)
    return [getattr(params, name) for name in _NEEDS[problem]]


def run_solver(problem: str, norm: str, inst: InstanceFile) -> SolveReport:
    """Dispatch one problem on a parsed instance."""
    solver = SOLVERS[(problem, norm)]
    return solver(inst.tree, inst.attrs, *_solve_args(problem, inst.params))


def _emit_report(args, report: SolveReport, elapsed: float, instance_digest: str,
                 out) -> None:
    record = {
        "problem": args.problem,
        "norm": args.norm,
        "status": report.status.value,
        "objective": report.objective,
        "cost": report.cost,
        "modified_edges": sorted(report.modified_edges),
        "iterations": report.iterations,
        "breakpoint": report.breakpoint,
        "wall_time_seconds": elapsed,
        "instance_digest": instance_digest,
    }
    if args.json:
        print(json.dumps({k: None if v == math.inf else v for k, v in record.items()},
                         sort_keys=True), file=out)
        return
    for key, value in record.items():
        if isinstance(value, list):
            value = ",".join(map(str, value))
        print(f"{key} {value!r}" if isinstance(value, float) else f"{key} {value}",
              file=out)


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
    """a and b agree to ``tol``, relative; an infinite value agrees only with an equal one."""
    if math.inf in (abs(a), abs(b)):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def _check_pair(problem: str, norm: str, inst: InstanceFile, trial_changes: int):
    """Solver-vs-oracle comparison for one instance.  Returns (ok, note).

    ``sdiptc`` runs with the instance's change bound and ``mcsdiptc`` with
    ``trial_changes``, which keeps its subset oracle small.
    """
    tree, attrs, params = inst.tree, inst.attrs, inst.params
    changes = params.N if problem == "sdiptc" else trial_changes
    rep = run_solver(problem, norm,
                     InstanceFile(tree, attrs, replace(params, N=changes)))
    oracle = "brute"
    if norm == "bh":
        ora = oracles.brute_bh(tree, attrs, problem, budget=params.K,
                               demand=params.D, max_changes=changes)
    elif problem == "sdipt":
        ora = oracles.grid_sdipt_inf(tree, attrs, params.K)
        ok = (rep.objective >= ora.objective - GRID_GAP
              and oracles.witness_feasible(tree, attrs, rep.weights,
                                           budget=params.K, norm="linf"))
        return ok, f"objective {rep.objective} vs grid {ora.objective}"
    elif problem == "sdiptc":
        ora = oracles.brute_sdiptc_inf(tree, attrs, params.K, changes)
    elif problem == "mcsdiptc":
        ora = oracles.brute_mcsdiptc_inf(tree, attrs, params.D, changes)
    elif params.D <= srd(tree, attrs.w):
        return rep.status is Status.ALREADY_SATISFIED and rep.cost == 0, \
            "demand already met"
    elif params.D > srd(tree, attrs.u):
        return rep.status is Status.INFEASIBLE, "demand unreachable"
    else:
        ora, oracle = oracles.parametric_mcsdipt_inf(tree, attrs, params.D), "parametric"

    if problem in ("sdipt", "sdiptc"):
        return _close(rep.objective, ora.objective), \
            f"objective {rep.objective} vs {oracle} {ora.objective}"
    if not ora.feasible:
        return rep.status is Status.INFEASIBLE, "oracle infeasible"
    if rep.status is Status.INFEASIBLE:
        return False, f"solver infeasible, oracle cost {ora.objective}"
    # Bottleneck costs are drawn from the cost values themselves, so a
    # correct solver reproduces the oracle cost exactly.
    same = rep.cost == ora.objective if norm == "bh" else _close(rep.cost, ora.objective)
    return same, f"cost {rep.cost} vs {oracle} {ora.objective}"


def verify_cmd(args, out=None) -> int:
    out = out if out is not None else sys.stdout
    if args.trials < 0:
        raise BadConfig(f"--trials {args.trials} is below 0, so there is no campaign to run")
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
    sizes = []
    for token in filter(None, args.sizes.split(",")):
        try:
            sizes.append(int(token))
        except ValueError:
            raise BadConfig(f"--sizes entry {token!r} is not an integer") from None
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
    except (SrdTreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
