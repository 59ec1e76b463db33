"""Tests of the benchmark's correctness certificates.

Run from the root of a checkout: python3 -m pytest perfbench

Every certificate must accept the program's answers and reject each of the
perturbations a wrong solver could produce: an objective shrunk by 1e-6
relative, a cost lowered by 1e-6 relative, one changed edge too many.
"""

from __future__ import annotations

import copy

import pytest

import certify
import workloads
from worker import answer, plain, solve, srdtree

CASES = [(shape, seed) for shape in workloads.SHAPES for seed in (1, 2, 3)]
CAPPED = [p for p in workloads.ALL_SOLVERS if p[0].endswith("c")]


def instance(shape: str, seed: int, edges: int = 40):
    inst = srdtree.generate(srdtree.GenConfig(node_count=edges + 1, seed=seed, shape=shape))
    e, w, u, c, K = plain(inst)
    facts = certify.Facts(e, w, u, c)
    n = max(1, facts.n // 4)
    return inst, facts, {"K": K, "N": n, "D": facts.half_top_demand(n)}


def solved(shape, seed, problem, norm):
    inst, facts, params = instance(shape, seed)
    return facts, params, answer(solve(inst, problem, norm, params), inst.tree.n)


def without_weights(ans: dict) -> dict:
    out = dict(ans)
    out["weights"] = None
    return out


@pytest.mark.parametrize("shape", workloads.SHAPES)
def test_leaf_counts_match_the_program(shape):
    inst = srdtree.generate(srdtree.GenConfig(node_count=300, seed=5, shape=shape))
    expected = srdtree.leaf_counts(inst.tree)
    got = certify.leaf_counts(list(inst.tree.edges))
    assert got == [expected[e] for e in range(1, inst.tree.n + 1)]


@pytest.mark.parametrize("problem,norm", workloads.ALL_SOLVERS)
@pytest.mark.parametrize("shape,seed", CASES)
def test_program_answers_are_certified(shape, seed, problem, norm):
    facts, params, ans = solved(shape, seed, problem, norm)
    assert certify.check(facts, problem, norm, params, ans) == []
    assert certify.check(facts, problem, norm, params, without_weights(ans)) == []


@pytest.mark.parametrize("problem,norm", workloads.ALL_SOLVERS)
@pytest.mark.parametrize("shape,seed", CASES)
@pytest.mark.parametrize("strip", (False, True))
def test_shrunk_objective_or_lowered_cost_is_rejected(shape, seed, problem, norm, strip):
    facts, params, ans = solved(shape, seed, problem, norm)
    bad = copy.deepcopy(ans)
    if problem.startswith("sdipt"):
        bad["objective"] *= 1 - 1e-6
    else:
        # A demand answer's objective is its cost.
        bad["cost"] *= 1 - 1e-6
        bad["objective"] = bad["cost"]
    if strip:
        bad = without_weights(bad)
    assert certify.check(facts, problem, norm, params, bad)


@pytest.mark.parametrize("problem,norm", CAPPED)
@pytest.mark.parametrize("shape,seed", CASES)
@pytest.mark.parametrize("strip", (False, True))
def test_one_edge_too_many_is_rejected(shape, seed, problem, norm, strip):
    facts, params, ans = solved(shape, seed, problem, norm)
    spare = [i for i in range(facts.n) if i + 1 not in ans["modified"]
             and facts.u[i] > facts.w[i]]
    extra = spare[:params["N"] + 1 - len(ans["modified"])]
    bad = copy.deepcopy(ans)
    bad["modified"] = sorted(bad["modified"] + [i + 1 for i in extra])
    for i in extra:
        bad["weights"][i] = facts.u[i]
    assert len(bad["modified"]) == params["N"] + 1
    if strip:
        bad = without_weights(bad)
    assert any("at most" in r for r in certify.check(facts, problem, norm, params, bad))


@pytest.mark.parametrize("problem,norm", workloads.ALL_SOLVERS)
def test_weight_above_its_bound_is_rejected(problem, norm):
    facts, params, ans = solved("binary", 7, problem, norm)
    bad = copy.deepcopy(ans)
    i = bad["modified"][0] - 1
    bad["weights"][i] = facts.u[i] * (1 + 1e-15) + 1e-15
    assert any("outside" in r for r in certify.check(facts, problem, norm, params, bad))


@pytest.mark.parametrize("problem,norm", workloads.DEMAND)
def test_wrong_status_is_rejected(problem, norm):
    facts, params, ans = solved("uniform-random-parent", 4, problem, norm)
    infeasible = {"status": certify.INFEASIBLE, "objective": float("inf"),
                  "cost": float("inf"), "modified": [], "weights": None}
    assert certify.check(facts, problem, norm, params, infeasible)
    met = {"status": certify.ALREADY, "objective": 0.0, "cost": 0.0,
           "modified": [], "weights": list(facts.w)}
    assert certify.check(facts, problem, norm, params, met)


def test_unreachable_demand_must_be_infeasible():
    inst, facts, params = instance("star", 9)
    params = dict(params, D=facts.w_total + 2 * certify.top_sum(facts.S, facts.n))
    rep = answer(solve(inst, "mcsdipt", "linf", params), inst.tree.n)
    assert rep["status"] == certify.INFEASIBLE
    assert certify.check(facts, "mcsdipt", "linf", params, rep) == []
