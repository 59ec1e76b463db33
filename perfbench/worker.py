"""The process that holds the program's data: set-up, timed rounds, traced sweeps.

``run.py`` starts this file as a child.  The child writes pickled
records to stdout until it has shipped its instances, reads the solve
parameters from stdin, and writes the rest of its records to the file
named by ``--records``.  The benchmark's own sums and certificates thus
never run in this process during a timed run, and never count towards its
peak RSS; only a traced run's sweep works out the probe's parameters here.

Records, in order; ``watch`` is (wall, ref, factor, legs, samples) of a
``refkernel.Stopwatch``:

    ("setup", watch, (calls, generate ref_s), (calls, serialize ref_s))
    ("instances", [(name, edges, w, u, c, K), ...], [boundary instances])
    ("op", round, kind, traced, watch, spans, answers)
    ("boundary", round, watch, outcomes)
    ("layer", name, calls, watch, spans, answers)
    ("probe", name, edges, w, u, c, params)

With ``--cli-setup`` the child stops after the set-up (and, when traced,
the sweeps): the command-line solves are separate processes.
"""

from __future__ import annotations

import argparse
import os
import pickle
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import srdtree  # noqa: E402

import certify  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from refkernel import Stopwatch  # noqa: E402

def solver(problem: str, norm: str):
    return getattr(srdtree, f"{problem}_{'inf' if norm == 'linf' else 'bh'}")


def solve(inst, problem: str, norm: str, params: dict):
    fn = solver(problem, norm)
    if problem == "sdipt":
        return fn(inst.tree, inst.attrs, params["K"])
    if problem == "sdiptc":
        return fn(inst.tree, inst.attrs, params["K"], params["N"])
    if problem == "mcsdipt":
        return fn(inst.tree, inst.attrs, params["D"])
    return fn(inst.tree, inst.attrs, params["D"], params["N"])


def answer(report, n: int) -> dict:
    """A solve report as plain data for the certificates."""
    weights = report.weights
    return {
        "status": report.status.value,
        "objective": float(report.objective),
        "cost": float(report.cost),
        "modified": sorted(report.modified_edges),
        "weights": None if weights is None else [weights[e] for e in range(1, n + 1)],
        "iterations": getattr(report, "iterations", 0),
    }


def generate(spec):
    return srdtree.generate(srdtree.GenConfig(
        node_count=spec.nodes, seed=spec.seed, shape=spec.shape))


def watch(sw: Stopwatch) -> tuple:
    return (sw.wall, sw.ref, sw.factor, sw.legs, sw.samples)


def plain(inst) -> tuple:
    n = inst.tree.n
    a = inst.attrs
    ids = range(1, n + 1)
    return (list(inst.tree.edges), [a.w[e] for e in ids], [a.u[e] for e in ids],
            [a.c[e] for e in ids], inst.params.K)


class Worker:
    def __init__(self, args):
        self.args = args
        self.out = sys.stdout.buffer
        self.recorder = tracer.Recorder()

    def emit(self, record) -> None:
        pickle.dump(record, self.out, protocol=pickle.HIGHEST_PROTOCOL)
        self.out.flush()

    @staticmethod
    def batch(fn, items):
        """Run fn over items under a Stopwatch; (results, watch record)."""
        with Stopwatch() as sw:
            results = [fn(item) for item in items]
        return results, watch(sw)

    def layer(self, name, fn, items, answers=None) -> list:
        results, sw = self.batch(fn, items)
        self.emit(("layer", name, len(items), sw, self.recorder.take(),
                   answers(results) if answers else None))
        return results

    def run(self) -> int:
        args = self.args
        trace = bool(args.trace)
        specs = workloads.specs(args.workload, args.seed)
        extra = workloads.boundary_specs() if args.workload == "small-trees" else []

        # Set-up, from the moment the parent started this process: imports,
        # generation and, for the command line, the instance files.
        with Stopwatch(before=args.kernel_before, start=args.spawn) as sw:
            gen_start = time.perf_counter()
            insts = [generate(s) for s in specs]
            boundary = [generate(s) for s in extra]
            ser_start = time.perf_counter()
            if args.cli_setup:
                for spec, inst in zip(specs, insts):
                    with open(os.path.join(args.files, f"{spec.name}.tif"), "w",
                              encoding="utf-8") as fh:
                        fh.write(srdtree.serialize(inst))
            end = time.perf_counter()
        self.emit(("setup", watch(sw),
                   (len(specs) + len(extra), sw.own(gen_start, ser_start) * sw.factor),
                   (len(specs), sw.own(ser_start, end) * sw.factor)))

        self.emit(("instances", [(s.name,) + plain(i) for s, i in zip(specs, insts)],
                   [(s.name,) + plain(i) for s, i in zip(extra, boundary)]))
        params, boundary_params = pickle.load(sys.stdin.buffer)
        # From here on records go to a file that the parent reads once this
        # process has ended, so it never competes for the CPU with a timing.
        with open(args.records, "wb") as self.out:
            if not args.cli_setup:
                self.rounds(insts, params, boundary, boundary_params, trace)
            if trace:
                self.sweep(specs, insts, params)
        return 0

    def rounds(self, insts, params, boundary, boundary_params, trace) -> None:
        names = [p["name"] for p in params]
        ops = workloads.ops(self.args.workload, names)
        deadline = time.perf_counter() + self.args.seconds
        rnd = 0
        while True:
            rnd += 1
            traced = trace and rnd % 2 == 0
            scope = tracer.installed(self.recorder) if traced else nullcontext()
            with scope:
                for op in ops:
                    self.recorder.take()
                    reports, sw = self.batch(
                        lambda i: solve(insts[i], op.problem, op.norm, params[i]),
                        op.instances)
                    answers = [answer(r, insts[i].tree.n)
                               for r, i in zip(reports, op.instances)]
                    self.emit(("op", rnd, op.kind, traced, sw, self.recorder.take(), answers))
            if boundary:
                self.boundary(rnd, boundary, boundary_params)
            if time.perf_counter() >= deadline and (not trace or rnd % 2 == 0):
                break

    def boundary(self, rnd, insts, params) -> None:
        """Demand solves at D = sum of L * u; an exception is a failed operation."""
        def attempt(job):
            i, problem, norm = job
            try:
                return answer(solve(insts[i], problem, norm, params[i]), insts[i].tree.n)
            except Exception as exc:  # the outcome under measurement; recorded, never raised
                return {"status": "error", "error": type(exc).__name__}

        jobs = [(i, p, m) for i in range(len(insts)) for p, m in workloads.DEMAND]
        outcomes, sw = self.batch(attempt, jobs)
        self.emit(("boundary", rnd, sw, outcomes))

    def sweep(self, specs, insts, params) -> None:
        """Traced mode: layers and solvers that the timed rounds do not reach."""
        rec = self.recorder
        rec.take()
        if not self.args.cli_setup:
            self.layer("instance.serialize", srdtree.serialize, insts)
        texts = [srdtree.serialize(i) for i in insts]
        with tracer.installed(rec, modules=("srdtree.instance",)):
            self.layer("instance.parse", rec.wrap("instance.parse", srdtree.parse), texts)

        own, probe = workloads.complement(self.args.workload)
        with tracer.installed(rec):
            for problem, norm in own:
                idx = range(len(insts))
                self.layer(f"solver/{problem}/{norm}",
                           lambda i: solve(insts[i], problem, norm, params[i]), idx,
                           lambda reps: [answer(r, insts[i].tree.n) for r, i in zip(reps, idx)])
        if probe:
            spec = workloads.specs("swap-loop", self.args.seed)[0]
            inst = generate(spec)
            edges, w, u, c, K = plain(inst)
            facts = certify.Facts(edges, w, u, c)
            n = workloads.change_bound(facts.n)
            p = {"K": K, "N": n, "D": facts.half_top_demand(n)}
            self.emit(("probe", spec.name, edges, w, u, c, p))
            with tracer.installed(rec):
                for problem, norm in probe:
                    self.layer(f"solver/{problem}/{norm}", lambda _: solve(inst, problem, norm, p),
                               [0], lambda reps: [answer(reps[0], inst.tree.n)])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark worker; started by run.py")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawn", type=float, required=True,
                    help="perf_counter reading just before this process was started")
    ap.add_argument("--kernel-before", type=float, required=True,
                    help="the kernel time measured just before that")
    ap.add_argument("--records", required=True, help="file for the records after set-up")
    ap.add_argument("--cli-setup", action="store_true")
    ap.add_argument("--files", default=None, help="directory for the instance files")
    return Worker(ap.parse_args(argv)).run()


if __name__ == "__main__":
    sys.exit(main())
