"""Acceptance gate: eleven campaign checks over the whole solver family, and a
clockless companion to C7.

Each test prints and records one PASS/FAIL line; the recorded lines are
echoed at the end of the pytest run.  Sizes follow the package convention
that ``tree.n`` counts edges; the scaling campaigns (C3, C4, C7) quote
requested node counts, matching the bench CSV column.
"""

import math
import time
from bisect import bisect_left
from fractions import Fraction

import pytest

from srdtree import (
    EdgeAttrs,
    EdgeScoreTable,
    GenConfig,
    SplitMix64,
    Status,
    build_tree,
    generate,
    leaf_counts,
    mcsdipt_bh,
    mcsdipt_inf,
    mcsdiptc_bh,
    mcsdiptc_inf,
    sdiptc_bh,
    sdiptc_inf,
    srd,
)
from srdtree.cli import ORACLE_CHANGE_CAP, _check_pair, main, run_bench
from srdtree.oracles import witness_feasible
from srdtree.instance import SHAPES

from certificates import capped_demand_faults

BENCH_SIZES = (1000, 5000, 10000, 30000, 50000)


@pytest.fixture
def record(request):
    def _record(line, ok):
        verdict = f"{line}: {'PASS' if ok else 'FAIL'}"
        request.config._criterion_lines.append(verdict)
        print(verdict)

    return _record


def draw_instance(rng, max_edges, shape=None):
    edges = 2 + rng.next_int(max_edges - 1)
    if shape is None:
        shape = SHAPES[rng.next_int(len(SHAPES))]
    return generate(
        GenConfig(node_count=edges + 1, seed=rng.next_u64(), shape=shape)
    )


def test_c1_linf_solvers_match_oracles(record):
    start = time.perf_counter()
    rng = SplitMix64(101)
    trials = 2000
    failures = []
    for trial in range(trials):
        inst = draw_instance(rng, 8, shape=SHAPES[trial % len(SHAPES)])
        trial_changes = min(inst.params.N, ORACLE_CHANGE_CAP)
        for problem in ("sdipt", "sdiptc", "mcsdipt", "mcsdiptc"):
            ok, note = _check_pair(problem, "linf", inst, trial_changes)
            if not ok:
                failures.append((trial, problem, note))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record(f"C1 scaled-raise solvers vs oracles, {trials} instances n<=8, "
           f"{elapsed:.1f}s", ok)
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_c2_bh_solvers_match_oracles(record):
    start = time.perf_counter()
    rng = SplitMix64(202)
    trials = 2000
    failures = []
    for trial in range(trials):
        inst = draw_instance(rng, 10, shape=SHAPES[trial % len(SHAPES)])
        tree, attrs, params = inst.tree, inst.attrs, inst.params
        for problem in ("sdipt", "sdiptc", "mcsdipt", "mcsdiptc"):
            ok, note = _check_pair(problem, "bh", inst, params.N)
            if not ok:
                failures.append((trial, problem, note))
        for rep in (mcsdipt_bh(tree, attrs, params.D),
                    mcsdiptc_bh(tree, attrs, params.D, params.N)):
            if rep.status is Status.FEASIBLE:
                reached = srd(tree, rep.weights)
                if reached < params.D - 1e-9 * max(1.0, abs(params.D)):
                    failures.append((trial, "srd", f"{reached} < {params.D}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    record(f"C2 bottleneck solvers vs oracles, {trials} instances n<=10, "
           f"{elapsed:.1f}s", ok)
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_c3_demand_met_with_equality(record):
    rng = SplitMix64(303)
    failures = []
    checked = 0
    for trial in range(2000):
        inst = draw_instance(rng, 8)
        rep = mcsdipt_inf(inst.tree, inst.attrs, inst.params.D)
        if rep.status is Status.FEASIBLE:
            checked += 1
            reached = srd(inst.tree, rep.weights)
            if abs(reached - inst.params.D) > 1e-9 * max(1.0, abs(inst.params.D)):
                failures.append((trial, reached, inst.params.D))
    for trial in range(100):
        inst = generate(GenConfig(node_count=10**4, seed=rng.next_u64()))
        rep = mcsdipt_inf(inst.tree, inst.attrs, inst.params.D)
        if rep.status is Status.FEASIBLE:
            checked += 1
            reached = srd(inst.tree, rep.weights)
            if abs(reached - inst.params.D) > 1e-9 * max(1.0, abs(inst.params.D)):
                failures.append(("large", trial, reached, inst.params.D))
    ok = not failures
    record(f"C3 cheapest upgrade meets the demand with equality, "
           f"{checked} feasible solves incl. 100 at 10^4 nodes", ok)
    assert not failures, failures[:5]


def test_c4_capped_demand_certificates(record):
    # Every answer of the cardinality demand solver is certified from the
    # definitions: its cost covers delta, a cost 1e-9 lower does not, and
    # its witness stays within w <= x <= u, changes at most N edges and
    # reaches D; an Infeasible is certified by the top full raises.
    rng = SplitMix64(404)
    failures = []
    for trial in range(10000):
        if trial < 9000:
            nodes = 2 + rng.next_int(199)
        else:
            nodes = 201 + rng.next_int(800)
        shape = SHAPES[rng.next_int(len(SHAPES))]
        inst = generate(GenConfig(node_count=nodes, seed=rng.next_u64(),
                                  shape=shape))
        tree, attrs, params = inst.tree, inst.attrs, inst.params
        rep = mcsdiptc_inf(tree, attrs, params.D, params.N)
        faults = capped_demand_faults(tree, attrs, params.D, params.N, rep)
        if faults:
            failures.append((trial, faults))
    ok = not failures
    record("C4 capped demand cost certified minimal and its witness valid, "
           "10000 instances up to 1000 nodes", ok)
    assert not failures, failures[:5]


def _top_gain_sum(tree, attrs, n_changes):
    counts = leaf_counts(tree)
    gains = sorted(
        (counts[e] * (attrs.u[e] - attrs.w[e]) for e in tree.edge_ids),
        reverse=True,
    )
    return sum(gains[:n_changes])


def test_c5_feasibility_gates_flip_at_the_boundary(record):
    rng = SplitMix64(505)
    per_gate = 500
    failures = {"uncapped linf": 0, "capped linf": 0,
                "uncapped bh": 0, "capped bh": 0}

    def probe(gate, solver, tree, attrs, boundary, extra=()):
        delta = 1e-6 * max(1.0, abs(boundary))
        low = solver(tree, attrs, boundary - delta, *extra)
        high = solver(tree, attrs, boundary + delta, *extra)
        if low.status is Status.INFEASIBLE:
            failures[gate] += 1
        if high.status is not Status.INFEASIBLE:
            failures[gate] += 1

    for _ in range(per_gate // 2):
        inst = draw_instance(rng, 60)
        tree, attrs = inst.tree, inst.attrs
        u_total = srd(tree, attrs.u)
        w_total = srd(tree, attrs.w)
        n_changes = inst.params.N
        capped_boundary = w_total + _top_gain_sum(tree, attrs, n_changes)
        probe("uncapped linf", mcsdipt_inf, tree, attrs, u_total)
        probe("uncapped bh", mcsdipt_bh, tree, attrs, u_total)
        probe("capped linf", mcsdiptc_inf, tree, attrs, capped_boundary,
              extra=(n_changes,))
        probe("capped bh", mcsdiptc_bh, tree, attrs, capped_boundary,
              extra=(n_changes,))

    ok = not any(failures.values())
    record(f"C5 demand feasibility gates exact at +/-1e-6 of the boundary, "
           f"{per_gate} cases per gate", ok)
    assert not any(failures.values()), failures


def test_c6_distance_sum_identity(record):
    rng = SplitMix64(606)
    failures = 0
    for trial in range(10000):
        edges_n = 1 + rng.next_int(50)
        shape = SHAPES[rng.next_int(len(SHAPES))]
        parents = ["s"]
        for i in range(2, edges_n + 1):
            if shape == "star":
                parents.append("s")
            elif shape == "caterpillar":
                parents.append(f"v{i - 2}" if i % 2 == 1 else f"v{i - 1}")
            elif shape == "binary":
                parents.append(f"v{i // 2}")
            else:
                j = rng.next_int(i)
                parents.append("s" if j == 0 else f"v{j}")
        edges = [(i, parents[i - 1], f"v{i}") for i in range(1, edges_n + 1)]
        if trial % 5 == 0:
            w = {i: Fraction(rng.next_int(1000), 1 + rng.next_int(9))
                 for i in range(1, edges_n + 1)}
        else:
            w = {i: rng.next_int(1000) for i in range(1, edges_n + 1)}
        attrs = EdgeAttrs(w=w, u=dict(w), c={i: 1 for i in w})
        tree = build_tree(edges, attrs)

        # up[i]: the edge above edge i (0 at the root), from the parents
        # drawn above; a leaf edge is above no other
        up = [0] + [0 if p == "s" else int(p[1:]) for p in parents]
        by_paths = 0
        for leaf in set(range(1, edges_n + 1)) - set(up):
            e = leaf
            while e:
                by_paths += w[e]
                e = up[e]
        if srd(tree, w) != by_paths:
            failures += 1
    ok = failures == 0
    record("C6 per-edge linear form equals per-leaf path sums, "
           "10000 exact instances n<=50", ok)
    assert failures == 0


def test_c7_bench_scaling(record):
    rows = run_bench(list(BENCH_SIZES), reps=5, seed=0)
    by_pair = {}
    for row in rows:
        by_pair.setdefault((row["problem"], row["norm"]), {})[row["n"]] = row

    problems = []

    for (problem, norm), sizes in by_pair.items():
        if (problem, norm) == ("mcsdiptc", "linf"):
            continue
        worst = sizes[50000]["t_max"]
        if worst >= 1.0:
            problems.append(f"{problem}/{norm} t_max {worst:.3f}s at 50000")

    def slope(pair):
        pts = [(math.log(n), math.log(by_pair[pair][n]["t_mean"]))
               for n in BENCH_SIZES]
        mx = sum(x for x, _ in pts) / len(pts)
        my = sum(y for _, y in pts) / len(pts)
        num = sum((x - mx) * (y - my) for x, y in pts)
        den = sum((x - mx) ** 2 for x, _ in pts)
        return num / den

    for pair, lo, hi in [(("sdipt", "linf"), 0.7, 1.3),
                         (("sdipt", "bh"), 0.7, 1.3),
                         (("mcsdipt", "linf"), 0.7, 1.5),
                         (("mcsdipt", "bh"), 0.7, 1.5),
                         (("mcsdiptc", "bh"), 0.7, 1.5),
                         (("mcsdiptc", "linf"), 0.7, 1.5)]:
        got = slope(pair)
        if not lo <= got <= hi:
            problems.append(f"{pair[0]}/{pair[1]} log-log slope {got:.2f} "
                            f"outside [{lo}, {hi}]")

    ok = not problems
    record("C7 bench: near-linear scaling and the 1 s cap at 50000 nodes, "
           "sizes 1000..50000", ok)
    assert not problems, problems


def test_c7_probe_count_is_logarithmic(record):
    # C7's companion without a clock: a capped mcsdiptc_inf solve bisects
    # the n + 1 positions of the F order, so it makes at most
    # ceil(log2(n + 1)) probes, and none when at most N edges can gain.
    problems = []
    for shape in SHAPES:
        for edges in (1000, 3000, 10000):
            inst = generate(GenConfig(node_count=edges + 1, seed=edges, shape=shape))
            tree, attrs = inst.tree, inst.attrs
            n = tree.n
            table = EdgeScoreTable(tree, attrs)
            for cap in (n // 10, n):
                top = sorted((table.S[e] for e in tree.edge_ids), reverse=True)[:cap]
                demand = srd(tree, attrs.w) + 0.5 * sum(top)
                rep = mcsdiptc_inf(tree, attrs, demand, cap)
                bound = n.bit_length() if table.gaining > cap else 0  # ceil(log2(n + 1))
                if rep.status is not Status.FEASIBLE or rep.iterations > bound:
                    problems.append((shape, n, cap, rep.status, rep.iterations, bound))
                elif table.gaining > cap and rep.iterations == 0:
                    problems.append((shape, n, cap, "no probe"))
    ok = not problems
    record("C7 probe bound: mcsdiptc_inf makes at most ceil(log2(n + 1)) probes, "
           "none when at most N edges gain, 1000..10000 edges", ok)
    assert not problems, problems


def test_c8_repeated_runs_are_byte_identical(record, tmp_path, capsys):
    inst_path = tmp_path / "det.tif"
    rc = main(["gen", "--nodes", "500", "--seed", "99",
               "--out", str(inst_path)])
    assert rc == 0
    capsys.readouterr()

    stable = True
    for problem, norm in [("sdipt", "linf"), ("sdiptc", "linf"),
                          ("mcsdipt", "linf"), ("mcsdiptc", "linf"),
                          ("sdipt", "bh"), ("sdiptc", "bh"),
                          ("mcsdipt", "bh"), ("mcsdiptc", "bh")]:
        outputs = set()
        for _ in range(10):
            main(["solve", "--problem", problem, "--norm", norm,
                  "--instance", str(inst_path)])
            out = capsys.readouterr().out
            lines = [ln for ln in out.splitlines()
                     if not ln.startswith("wall_time_seconds ")]
            outputs.add("\n".join(lines))
        if len(outputs) != 1:
            stable = False

    transcripts = set()
    for _ in range(2):
        main(["verify", "--trials", "100", "--max-n", "8", "--seed", "11"])
        transcripts.add(capsys.readouterr().out)
    if len(transcripts) != 1:
        stable = False

    record("C8 ten solve runs and two verify transcripts byte-identical", stable)
    assert stable


def _rational_instance(rng, max_edges):
    edges_n = 2 + rng.next_int(max_edges - 1)
    parents = ["s"]
    for i in range(2, edges_n + 1):
        j = rng.next_int(i)
        parents.append("s" if j == 0 else f"v{j}")
    edges = [(i, parents[i - 1], f"v{i}") for i in range(1, edges_n + 1)]
    w, u, c = {}, {}, {}
    for i in range(1, edges_n + 1):
        w[i] = Fraction(rng.next_int(60), 1 + rng.next_int(6))
        u[i] = w[i] + Fraction(1 + rng.next_int(60), 1 + rng.next_int(6))
        c[i] = Fraction(1 + rng.next_int(40), 1 + rng.next_int(6))
    attrs = EdgeAttrs(w=w, u=u, c=c)
    return build_tree(edges, attrs), attrs


def test_c9_breakpoint_reconstruction(record):
    rng = SplitMix64(909)
    failures = []
    for trial in range(500):
        tree, attrs = _rational_instance(rng, 8)
        counts = leaf_counts(tree)
        w, u, c = attrs.w, attrs.u, attrs.c
        w_total = srd(tree, attrs.w)
        u_total = srd(tree, attrs.u)
        q = Fraction(1 + rng.next_int(999), 1000)
        demand = w_total + q * (u_total - w_total)

        rep = mcsdipt_inf(tree, attrs, demand)
        if rep.status is not Status.FEASIBLE:
            failures.append((trial, "status", rep.status))
            continue

        # rebuild the whole solution from the reported breakpoint alone
        order = sorted(tree.edge_ids, key=lambda e: (c[e] * (u[e] - w[e]), e))
        k = rep.breakpoint
        level = c[order[k - 1]] * (u[order[k - 1]] - w[order[k - 1]]) if k else 0
        covered = sum(
            counts[e] * min(u[e] - w[e], Fraction(level) / c[e])
            for e in tree.edge_ids
        )
        rest = order[k:]
        rate = sum(Fraction(counts[e], 1) / c[e] for e in rest)
        cost = level + (demand - w_total - covered) / rate
        weights = {e: u[e] for e in order[:k]}
        weights.update({e: w[e] + cost / c[e] for e in rest})

        if cost != rep.cost or cost != rep.objective:
            failures.append((trial, "cost", cost, rep.cost))
        elif weights != rep.weights:
            failures.append((trial, "weights"))
        elif srd(tree, weights) != demand:
            failures.append((trial, "demand"))
        elif frozenset(e for e in weights
                       if weights[e] != w[e]) != rep.modified_edges:
            failures.append((trial, "modified"))
    ok = not failures
    record("C9 reported breakpoint reconstructs the exact rational optimum, "
           "500 instances", ok)
    assert not failures, failures[:5]


def test_c10_boundary_demands_are_answered(record):
    # Every demand solver is total at the edges of the reachable range:
    # D = srd(w) and D = srd(u) with N = n, and D = srd of the vector that
    # raises the N largest full-raise gains S to u, N = max(1, n // 10) < n.
    # Each answer must be Feasible or AlreadySatisfied with a witness inside
    # the raw constraints; a call that raises fails the test.
    start = time.perf_counter()
    rng = SplitMix64(1010)
    per_shape = 2000
    failures = []
    answers = 0
    for shape in SHAPES:
        for trial in range(per_shape):
            inst = draw_instance(rng, 121, shape=shape)
            tree, attrs = inst.tree, inst.attrs
            w, u, n = attrs.w, attrs.u, tree.n
            cap = max(1, n // 10)
            best = sorted(tree.edge_ids,
                          key=lambda e: (-tree.counts[e] * (u[e] - w[e]), e))
            top_raise = {**w, **{e: u[e] for e in best[:cap]}}
            cases = [(srd(tree, w), n, True), (srd(tree, u), n, True),
                     (srd(tree, top_raise), cap, False)]
            for demand, n_changes, uncapped_too in cases:
                solves = [("linf", mcsdiptc_inf, (n_changes,)),
                          ("bh", mcsdiptc_bh, (n_changes,))]
                if uncapped_too:
                    solves += [("linf", mcsdipt_inf, ()), ("bh", mcsdipt_bh, ())]
                for norm, solver, extra in solves:
                    answers += 1
                    rep = solver(tree, attrs, demand, *extra)
                    if rep.status is Status.INFEASIBLE:
                        failures.append((shape, trial, solver.__name__, demand))
                    elif not witness_feasible(tree, attrs, rep.weights, demand=demand,
                                              max_changes=n_changes, norm=norm):
                        failures.append((shape, trial, solver.__name__, "witness"))
    elapsed = time.perf_counter() - start
    ok = not failures
    record(f"C10 demand solvers total at srd(w), srd(u) and the top-N reach, "
           f"{answers} answers on {per_shape} instances per shape, {elapsed:.1f}s", ok)
    assert not failures, failures[:5]


def test_c11_demand_answers_are_budget_duals(record):
    # The paper solves each minimum-cost problem through its budget
    # subproblem.  Every Feasible demand answer of cost C is certified by
    # its budget twin at the same N, without an oracle: at budget C it
    # reaches D, and one level cheaper it does not.  Under linf that level
    # is C * (1 - 1e-9); under bh it is the next cheaper distinct c, or 0
    # below the cheapest.  At the half-top demands the float sums of
    # mcsdiptc_inf can miss D by float dust, so reaching D allows C10's
    # 1e-9 relative slack; the cheaper level gets none.
    start = time.perf_counter()
    norms = {"linf": (mcsdipt_inf, mcsdiptc_inf, sdiptc_inf),
             "bh": (mcsdipt_bh, mcsdiptc_bh, sdiptc_bh)}
    failures = []
    answers = 0
    for shape in SHAPES:
        for seed, edges in enumerate((1000, 1500, 2000, 3000, 5000, 7000, 10000), 1100):
            inst = generate(GenConfig(node_count=edges + 1, seed=seed, shape=shape))
            tree, attrs, params = inst.tree, inst.attrs, inst.params
            n = tree.n
            w_total = srd(tree, attrs.w)
            gains = sorted(EdgeScoreTable(tree, attrs).S.values(), reverse=True)
            prices = sorted(set(attrs.c.values()))
            # (demand, N, whether the uncapped solver answers it too)
            cases = [(params.D, params.N, True)]
            cases += [(w_total + 0.5 * sum(gains[:cap]), cap, cap == n) for cap in (n // 10, n)]
            for norm, (uncapped, capped, budget) in norms.items():
                for demand, cap, uncapped_too in cases:
                    slack = 1e-9 * max(1.0, abs(demand))
                    reps = [(cap, capped(tree, attrs, demand, cap))]
                    if uncapped_too:
                        reps.append((n, uncapped(tree, attrs, demand)))
                    for bound, rep in reps:
                        if rep.status is not Status.FEASIBLE:
                            continue
                        answers += 1
                        cost = rep.cost
                        if norm == "linf":
                            cheaper = cost * (1 - 1e-9)
                        else:
                            cheaper = prices[bisect_left(prices, cost) - 1] if cost > prices[0] else 0
                        if budget(tree, attrs, cost, bound).objective < demand - slack:
                            failures.append((shape, n, norm, bound, "short at C"))
                        if budget(tree, attrs, cheaper, bound).objective >= demand:
                            failures.append((shape, n, norm, bound, "reached below C"))
    elapsed = time.perf_counter() - start
    ok = not failures
    record(f"C11 every demand answer reaches D through its budget twin at its cost "
           f"and not one level cheaper, {answers} answers at 1000..10000 edges, "
           f"{elapsed:.1f}s", ok)
    assert not failures, failures[:5]
