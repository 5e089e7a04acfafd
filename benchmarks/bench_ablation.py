"""Ablation studies on the design choices DESIGN.md calls out.

A3 — the pole quad's interior vertex w ∈ {2q+1, 2q+2}: both complete;
     recorded so regressions in either variant are caught.
A4 — the ρ(n) covering search: chord branching order (lexicographic vs
     scarcest-first) × canonical-mask transposition memo.  Lexicographic
     order resolves all chords at a vertex together, so sibling subtrees
     share residual states and the memo collapses them; scarcest-first
     (classic MRV) minimises fan-out per node but starves the memo.
     Every table is emitted as text and as JSON rows.
"""

from __future__ import annotations

import time

from repro.core.pole import pole_forced_blocks
from repro.core.engine import exact_decomposition
from repro.util import circular
from repro.util.errors import SolverError
from repro.util.tables import Table

NS_PRIME = (11, 15, 19, 23)


def _completion_edges(n_prime: int, w: int) -> frozenset:
    forced = pole_forced_blocks(n_prime, w)
    covered = {e for blk in forced for e in blk.edges()}
    return frozenset(
        e for e in circular.all_chords(n_prime) if 0 not in e and e not in covered
    )


def test_bench_ablation_pole_w(benchmark, save_table, save_json):
    """A3: both pole-quad variants complete (w = 2q+1 and 2q+2)."""

    def run():
        rows = []
        for n_prime in NS_PRIME:
            q = (n_prime - 3) // 4
            for w in (2 * q + 1, 2 * q + 2):
                edges = _completion_edges(n_prime, w)
                t0 = time.perf_counter()
                result = exact_decomposition(n_prime, edges, max_triangles=1)
                rows.append(
                    {"np": n_prime, "w": w, "seconds": time.perf_counter() - t0,
                     "solved": result is not None}
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    table = Table("A3 — pole quad interior vertex", ["n'", "w", "seconds", "solved"])
    for row in rows:
        table.add_row(row["np"], row["w"], round(row["seconds"], 3), row["solved"])
    text = table.render()
    save_table("A3_ablation_pole_w", text)
    save_json("A3_ablation_pole_w", {"experiment": "A3", "rows": rows})
    print("\n" + text)

    assert all(row["solved"] for row in rows)


def test_bench_ablation_covering_search(benchmark, save_table, save_json):
    """A4: the ρ(n) covering search — branching order × transposition
    memo, on the even sizes whose counting-bound gap forces a real
    exhaustion proof (budget-capped; a blow-up shows up as 'no').
    Runs through the declarative API: the solver-regime knobs
    (``branching``, ``use_memo``, ``node_limit``) are spec fields, so
    the ablation is just a grid of ``CoverSpec``\\ s over the pinned
    ``exact`` backend."""
    from repro.api import CoverSpec, solve
    from repro.core.formulas import rho

    def run():
        rows = []
        for n in (6, 8):
            for branching in ("lex", "scarcest"):
                for use_memo in (True, False):
                    spec = CoverSpec.for_ring(
                        n, backend="exact", use_hints=False,
                        branching=branching, use_memo=use_memo,
                        node_limit=300_000,
                    )
                    nodes = 0
                    t0 = time.perf_counter()
                    try:
                        result = solve(spec)
                        solved = result.num_blocks == rho(n)
                        nodes = result.stats.nodes
                    except SolverError:
                        # Budget exhausted — the measurement.  The stats
                        # stay inside the unreturned Result, so record
                        # the budget itself: the explored count at the
                        # point of the overrun.
                        solved = False
                        nodes = spec.node_limit
                    rows.append(
                        {"n": n, "branching": branching, "memo": use_memo,
                         "seconds": time.perf_counter() - t0,
                         "nodes": nodes, "solved": solved}
                    )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    table = Table(
        "A4 — covering-search ablation (300k-node budget)",
        ["n", "branching", "memo", "seconds", "nodes", "solved"],
    )
    for row in rows:
        table.add_row(
            row["n"], row["branching"], row["memo"],
            round(row["seconds"], 3), row["nodes"], row["solved"],
        )
    text = table.render()
    save_table("A4_ablation_covering_search", text)
    save_json("A4_ablation_covering_search", {"experiment": "A4", "rows": rows})
    print("\n" + text)

    # The shipped configuration (lex + memo) must solve both sizes in
    # budget and never explore more nodes than any other configuration
    # that also solved.
    by_config = {(r["n"], r["branching"], r["memo"]): r for r in rows}
    for n in (6, 8):
        shipped = by_config[(n, "lex", True)]
        assert shipped["solved"], f"default config failed at n={n}"
        for (rn, _, _), row in by_config.items():
            if rn == n and row["solved"]:
                assert shipped["nodes"] <= row["nodes"], (
                    f"default config is not the fastest at n={n}"
                )
