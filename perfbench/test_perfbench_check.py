"""Tests for the benchmark's independent covering checker."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from covercheck import envelope_problems, rho
from repro.api import CoverSpec, solve

BENCH_DIR = Path(__file__).resolve().parent

# ρ(n) for n = 4..13 as the paper states it (Theorems 1 and 2).
PAPER_RHO = {4: 3, 5: 3, 6: 5, 7: 6, 8: 9, 9: 10, 10: 13, 11: 15, 12: 19, 13: 21}


def envelope(n: int, **kwargs) -> dict:
    return json.loads(solve(CoverSpec.for_ring(n, **kwargs)).to_json())


def test_rho_matches_the_paper():
    assert {n: rho(n) for n in PAPER_RHO} == PAPER_RHO


@pytest.mark.parametrize("n", range(4, 14))
def test_accepts_the_closed_form_coverings(n):
    assert envelope_problems(envelope(n)) == []


@pytest.mark.parametrize("n, lam", [(6, 2), (7, 3)])
def test_accepts_lambda_fold_coverings(n, lam):
    assert envelope_problems(envelope(n, lam=lam)) == []


def test_rejects_a_dropped_block():
    env = envelope(9)
    env["covering"]["blocks"].pop()
    problems = envelope_problems(env)
    assert any("covered fewer than" in p for p in problems)
    # n = 9 is an exact decomposition: one block fewer is too few slots.
    assert any("slots <" in p for p in problems)
    assert any("ρ(9) = 10" in p for p in problems)


def test_rejects_a_non_monotone_block():
    env = envelope(6)
    blocks = env["covering"]["blocks"]
    i = next(i for i, b in enumerate(blocks) if len(b) == 4)
    a, b, c, d = blocks[i]
    blocks[i] = [a, c, b, d]
    assert any("monotonically" in p for p in envelope_problems(env))


def test_rejects_one_block_too_many():
    env = envelope(10)
    env["covering"]["blocks"].append(copy.deepcopy(env["covering"]["blocks"][0]))
    assert envelope_problems(env) == ["14 blocks claimed optimal, but ρ(10) = 13"]


def test_rejects_a_covering_below_its_multiplicity():
    env = envelope(7)
    env["spec"]["lam"] = 2
    assert any("fewer than λ=2" in p for p in envelope_problems(env))


def test_benchmark_json_names_the_metrics_the_runner_prints():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH_DIR / "run.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    config = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in config["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in config["per_layer"]} == runner.PER_LAYER
    assert sorted(w["name"] for w in config["workloads"]) == sorted(runner.WORKLOADS)
