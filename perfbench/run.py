"""Benchmark of the srdtree solvers: one workload per run, every answer certified.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-trees --seed 1 --seconds 10 --trace 0

Workloads: large-trees, cli-solve, swap-loop, small-trees (see README.md).
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
solve_s, setup_s and peak_rss_mb; with --trace 1 they are the per-layer
numbers, and the spans and raw wall times go to perfbench/out/.

All times are in reference seconds (ref_s): wall seconds rescaled by the
speed of a fixed reference kernel, run around and sampled during each
timed operation (refkernel.py).  Everything runs sequentially, on one
CPU, in this process and its own children.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import time

import certify
import workloads
from refkernel import Stopwatch, kernel

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SOLVER_LAYER = {"linf": "linf.{}_inf", "bh": "bh.{}_bh"}
LAYER_SPANS = ("tree.leaf_counts", "scores.edge_scores", "selection.nth_largest")
STARTUP_RUNS = 3


def reap(proc) -> float:
    """Wait for a child with os.wait4; return its peak RSS in MB."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def stop(proc) -> None:
    """Kill a child that has not been reaped yet, and reap it."""
    if proc.returncode is None:
        proc.kill()
        proc.wait()


def run_child(argv, env):
    """Run a child to its end; return (stdout bytes, peak RSS in MB, exit code)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env)
    try:
        data = proc.stdout.read()
        proc.stdout.close()
        rss = reap(proc)
    except BaseException:
        stop(proc)
        raise
    return data, rss, proc.returncode


def records(stream):
    while True:
        try:
            yield pickle.load(stream)
        except EOFError:
            return


class Run:
    """One benchmark run: start the worker, time, certify, report."""

    def __init__(self, args):
        self.args = args
        self.problems = []        # certificate failures, as text
        self.attempted = 0
        self.failed = 0
        self.ops = []             # timed operations: dicts, see _op
        self.layers = []          # traced sweep records
        self.boundary = []
        self.legs = []            # every kernel leg time seen, raw seconds
        self.first = {}           # op kind -> answers of its first round
        self.probe = None
        self.cli_rss = 0.0

    # -- the worker -----------------------------------------------------

    def start_worker(self, cli_setup: bool, files: str | None):
        args = self.args
        path = os.path.join(OUT, f"records-{os.getpid()}.pickle")
        argv = [sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--records", path]
        if cli_setup:
            argv += ["--cli-setup", "--files", files]
        argv += ["--kernel-before", repr(kernel()), "--spawn", repr(time.perf_counter())]
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            try:
                self.handshake(proc)
                proc.stdout.close()
                self.worker_rss = reap(proc)
            except BaseException:
                stop(proc)
                raise
            if proc.returncode != 0:
                raise RuntimeError(f"worker exited with code {proc.returncode}")
            with open(path, "rb") as fh:
                for rec in records(fh):
                    getattr(self, "_" + rec[0])(*rec[1:])
        finally:
            if os.path.exists(path):
                os.remove(path)

    def handshake(self, proc) -> None:
        """Read the set-up and the instances; send back the solve parameters."""
        args = self.args
        stream = records(proc.stdout)
        _, sw, gen, ser = next(stream)
        self.legs += sw[3]
        self.setup = {"wall": sw[0], "ref": sw[1], "generate": gen, "serialize": ser}

        _, insts, boundary = next(stream)
        self.names = [i[0] for i in insts]
        self.facts = [certify.Facts(*i[1:5]) for i in insts]
        self.params = []
        for (name, _, _, _, _, K), f in zip(insts, self.facts):
            n = workloads.change_bound(f.n)
            self.params.append({"name": name, "K": K, "N": n, "D": f.half_top_demand(n)})
        self.bfacts = [certify.Facts(*i[1:5]) for i in boundary]
        # The exact reachable boundary, summed in edge-id order as the
        # solvers sum it.
        self.bparams = [{"D": sum(l * ue for l, ue in zip(f.L, f.u)), "N": f.n}
                        for f in self.bfacts]
        self.round_ops = workloads.ops(args.workload, self.names)
        pickle.dump((self.params, self.bparams), proc.stdin)
        proc.stdin.close()

    def _op(self, rnd, kind, traced, sw, spans, answers):
        op = next(o for o in self.round_ops if o.kind == kind)
        wall, ref, factor, legs, samples = sw
        self.legs += legs
        self.ops.append({"round": rnd, "kind": kind, "traced": traced, "wall": wall,
                         "ref": ref, "factor": factor, "samples": samples,
                         "spans": spans, "op": op, "answers": answers})
        self.attempted += len(op.instances)
        if kind not in self.first:
            self.first[kind] = answers
            for i, ans in zip(op.instances, answers):
                if ans is None:
                    continue
                self.certify(self.facts[i], op.problem, op.norm, self.params[i], ans,
                             f"{self.names[i]}/{op.problem}/{op.norm}")
        elif answers != self.first[kind]:
            self.problems.append(f"{kind}: round {rnd} answers differ from round 1")

    def _boundary(self, rnd, sw, outcomes):
        """The boundary slice: a raise, an Infeasible or a wrong answer is a failure.

        Every demand here is reachable (all edges at u reach it), so each of
        the three is the float boundary fault under measurement.
        """
        self.legs += sw[3]
        self.boundary.append({"round": rnd, "wall": sw[0], "ref": sw[1], "outcomes": outcomes})
        self.attempted += len(outcomes)
        if rnd == 1:
            jobs = [(i, p, m) for i in range(len(self.bfacts)) for p, m in workloads.DEMAND]
            self.boundary_verdicts = []
            for (i, p, m), ans in zip(jobs, outcomes):
                if ans["status"] == "error":
                    verdict = ans["error"]
                elif ans["status"] == certify.INFEASIBLE:
                    verdict = "Infeasible"
                else:
                    reasons = certify.check(self.bfacts[i], p, m, self.bparams[i], ans)
                    verdict = "wrong answer" if reasons else "ok"
                self.boundary_verdicts.append((f"{p}/{m}", verdict))
        elif outcomes != self.boundary[0]["outcomes"]:
            self.problems.append(f"boundary slice: round {rnd} outcomes differ from round 1")
        self.failed += sum(v != "ok" for _, v in self.boundary_verdicts)

    def _layer(self, name, calls, sw, spans, answers):
        wall, ref, factor, legs, samples = sw
        self.legs += legs
        self.layers.append({"name": name, "calls": calls, "wall": wall, "ref": ref,
                            "factor": factor, "samples": samples, "spans": spans,
                            "answers": answers})
        if answers and name.startswith("solver/"):
            _, p, m = name.split("/")
            for i, ans in enumerate(answers):
                facts, params = self.probe or (self.facts[i], self.params[i])
                self.certify(facts, p, m, params, ans, f"{name} #{i}")

    def _probe(self, name, edges, w, u, c, params):
        """The sweep's solves from here on ran on the probe instance."""
        self.probe = (certify.Facts(edges, w, u, c), params)

    def certify(self, facts, problem, norm, params, ans, where) -> None:
        for reason in certify.check(facts, problem, norm, params, ans):
            self.problems.append(f"{where}: {reason}")

    # -- command-line rounds --------------------------------------------

    def cli_rounds(self, files: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        deadline = time.perf_counter() + self.args.seconds
        rnd = 0
        while True:
            rnd += 1
            traced = bool(self.args.trace) and rnd % 2 == 0
            for op in self.round_ops:
                i = op.instances[0]
                p = self.params[i]
                argv = ["solve", "--problem", op.problem, "--norm", op.norm,
                        "--instance", os.path.join(files, f"{self.names[i]}.tif"),
                        "--json", "--d", repr(p["D"]), "--n", str(p["N"])]
                spans_path = os.path.join(files, "spans.json")
                if traced:
                    argv = [os.path.join(HERE, "traced_cli.py"), spans_path] + argv
                else:
                    argv = ["-m", "srdtree"] + argv
                with Stopwatch() as sw:
                    data, rss, code = run_child([sys.executable] + argv, env)
                self.cli_rss = max(self.cli_rss, rss)
                if code not in (0, 2):
                    self.problems.append(f"{op.kind}: srdtree solve exited {code}")
                    answers = [None]
                else:
                    out = json.loads(data)
                    inf = float("inf")
                    answers = [{"status": out["status"],
                                "objective": inf if out["objective"] is None else out["objective"],
                                "cost": inf if out["cost"] is None else out["cost"],
                                "modified": out["modified_edges"], "weights": None,
                                "iterations": out["iterations"]}]
                spans = []
                if traced:
                    with open(spans_path, encoding="utf-8") as fh:
                        spans = [tuple(s) for s in json.load(fh)]
                    os.remove(spans_path)
                self._op(rnd, op.kind, traced, (sw.wall, sw.ref, sw.factor, sw.legs, sw.samples),
                         spans, answers)
            if time.perf_counter() >= deadline and (not self.args.trace or rnd % 2 == 0):
                break

    def startup(self, env) -> list:
        """Wall time of `python -m srdtree --help`, in ref_s, a few times."""
        out = []
        for _ in range(STARTUP_RUNS):
            with Stopwatch() as sw:
                subprocess.run([sys.executable, "-m", "srdtree", "--help"], env=env,
                               stdout=subprocess.DEVNULL, check=True)
            out.append(sw.ref)
        return out

    # -- the run --------------------------------------------------------

    def go(self) -> dict:
        args = self.args
        cli = args.workload == "cli-solve"
        files = None
        os.makedirs(OUT, exist_ok=True)
        try:
            if cli:
                files = os.path.join(OUT, f"cli-{args.seed}-{os.getpid()}")
                os.makedirs(files, exist_ok=True)
            self.start_worker(cli, files)
            if cli:
                self.cli_rounds(files)
        finally:
            if files:
                shutil.rmtree(files, ignore_errors=True)
        return self.report()

    def solve_s(self, traced: bool, key: str = "ref") -> float:
        by_kind = {}
        for op in self.ops:
            if op["traced"] == traced:
                by_kind.setdefault(op["kind"], []).append(op[key])
        return sum(statistics.median(v) for v in by_kind.values())

    def report(self) -> dict:
        cli = self.args.workload == "cli-solve"
        rss = self.cli_rss if cli else self.worker_rss
        raw = {"solve_wall_s": self.solve_s(False, "wall"), "setup_wall_s": self.setup["wall"],
               "leg_s": statistics.median(self.legs),
               "rounds": max(op["round"] for op in self.ops)}
        if not self.args.trace:
            metrics = {"solve_s": (self.solve_s(False), "ref_s"),
                       "setup_s": (self.setup["ref"], "s"),
                       "peak_rss_mb": (rss, "MB")}
        else:
            metrics = self.per_layer(rss)
        detail = {"workload": self.args.workload, "seed": self.args.seed,
                  "trace": self.args.trace, "raw": raw,
                  "metrics": {k: v for k, (v, _) in metrics.items()},
                  "per_kind": {k: [(op["wall"], op["ref"]) for op in self.ops if op["kind"] == k]
                               for k in dict.fromkeys(op["kind"] for op in self.ops)},
                  "boundary": self.boundary_summary(), "problems": self.problems[:50]}
        if self.args.trace:
            detail["spans"] = [(op["kind"], op["round"], op["factor"], op["spans"])
                               for op in self.ops if op["traced"]]
            detail["layers"] = [{k: v for k, v in rec.items() if k != "answers"}
                                for rec in self.layers]
        path = os.path.join(OUT, f"{self.args.workload}-seed{self.args.seed}"
                                 f"-trace{self.args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
        for line in self.problems[:20]:
            print(f"certificate: {line}", file=sys.stderr)
        print("raw " + json.dumps(raw))
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def boundary_summary(self) -> dict:
        if not self.boundary:
            return {}
        counts = {}
        for job, verdict in self.boundary_verdicts:
            counts.setdefault(job, {}).setdefault(verdict, 0)
            counts[job][verdict] += 1
        return {"trees": len(self.bfacts), "per_round": counts,
                "ref_s": statistics.median(b["ref"] for b in self.boundary)}

    def per_layer(self, rss) -> dict:
        cli = self.args.workload == "cli-solve"
        traced = [op for op in self.ops if op["traced"]]
        # Per traced round, layer -> [ref_s, calls].  In-process solvers are
        # timed by their operation, command-line ones by the span around them.
        per_round = {}
        for op in traced:
            acc = per_round.setdefault(op["round"], {})
            o = op["op"]
            if not cli:
                _add(acc, SOLVER_LAYER[o.norm].format(o.problem), op["ref"], len(o.instances))
            _add_spans(acc, op)
        values = {}
        for acc in per_round.values():
            for name, (total, calls) in acc.items():
                values.setdefault(name, []).append(total / calls)
        values = {name: statistics.median(v) for name, v in values.items()}

        # Layers the rounds did not reach come from the traced sweep.
        sweep = {}
        for rec in self.layers:
            if rec["name"] != "instance.parse":
                _add(sweep, _layer_name(rec["name"]), rec["ref"], rec["calls"])
            _add_spans(sweep, rec)
        _add(sweep, "instance.generate", self.setup["generate"][1], self.setup["generate"][0])
        if self.args.workload == "cli-solve":
            ser_calls, ser_ref = self.setup["serialize"]
            _add(sweep, "instance.serialize", ser_ref, ser_calls)
        for name, (total, calls) in sweep.items():
            values.setdefault(name, total / calls)

        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        startup = self.startup(env)

        leaf = [acc.get("tree.leaf_counts", (0.0, 0)) for acc in per_round.values()]
        traced_total = sum(op["ref"] for op in traced)
        passes = [a["iterations"] for op in traced
                  if (op["op"].problem, op["op"].norm) == ("mcsdiptc", "linf")
                  for a in op["answers"]]
        passes = passes or [a["iterations"] for rec in self.layers
                            if rec["name"] == "solver/mcsdiptc/linf" for a in rec["answers"]]

        metrics = {}
        for layer in ("instance.generate", "instance.serialize", "instance.parse",
                      "tree.build_tree") + LAYER_SPANS:
            metrics[f"{layer}_s"] = (values.get(layer, 0.0), "ref_s")
        metrics["cli.startup_s"] = (statistics.median(startup), "ref_s")
        for p, m in workloads.ALL_SOLVERS:
            name = SOLVER_LAYER[m].format(p)
            metrics[f"{name}_s"] = (values.get(name, 0.0), "ref_s")
        metrics["linf.mcsdiptc_inf_passes"] = (statistics.mean(passes), "count")
        metrics["tree.leaf_counts_calls"] = (statistics.median(c for _, c in leaf), "count")
        metrics["tree.leaf_counts_share"] = (
            100.0 * sum(t for t, _ in leaf) / traced_total, "%")
        metrics["bench.reference_kernel_s"] = (statistics.median(self.legs), "s")
        metrics["bench.traced_solve_s"] = (self.solve_s(True), "ref_s")
        metrics["bench.trace_overhead_s"] = (self.solve_s(True) - self.solve_s(False), "ref_s")
        metrics["process.peak_rss_mb"] = (rss, "MB")
        return metrics


def _layer_name(name: str) -> str:
    """Span and record names to metric stems: solver/p/norm -> norm.p_<norm>."""
    if name.startswith("solver/"):
        _, p, m = name.split("/")
        return SOLVER_LAYER[m].format(p)
    return name


def _add(acc: dict, name: str, ref: float, calls: int = 1) -> None:
    total = acc.setdefault(name, [0.0, 0])
    total[0] += ref
    total[1] += calls


def _add_spans(acc: dict, rec: dict) -> None:
    """Add a record's spans in ref_s, each without the kernel legs sampled inside it."""
    spans, samples = rec["spans"], rec["samples"]

    def own(start, end):
        return (end - start) - sum(s for t, s in samples if start <= t < end)

    for name, start, end in spans:
        dur = own(start, end)
        if name == "instance.parse":
            # parse_s is parse's own time; the build_tree it calls is apart.
            dur -= sum(own(s, e) for n, s, e in spans
                       if n == "tree.build_tree" and start <= s and e <= end)
        _add(acc, _layer_name(name), dur * rec["factor"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "srdtree", "__init__.py")):
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    # A terminated run still stops and reaps its children (see Run.go).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and every child, so that each reference
    # kernel run shares its core, and that core's speed, with what it
    # times.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result = Run(args).go()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
