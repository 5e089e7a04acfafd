"""E10 — exact certification of ρ(n) at small n.

The branch-and-bound solver knows neither the formulas nor the
constructions (it gets no upper-bound hints); its optimum matching
ρ(n) for every n it can exhaust is the reproduction's independent
check of the theorems' *lower* bounds.

Runs through the declarative :mod:`repro.api` layer (one ``CoverSpec``
per ring size, the exact backends pinned, hints off — see
:func:`repro.analysis.experiments.experiment_solver_certification`).
The sweep reaches n = 11 since the canonical-mask
transposition memo, the packing bound, and improver-seeded incumbents
landed: n = 9 and n = 11 certify from the root (the counting bound is
tight for odd n), and the even sizes — whose bound gap forces a real
exhaustion proof — run orders of magnitude below the seed solver
(n = 8: 85,650 → ~3.5k nodes).  Ring sizes ≥ ``SHARD_THRESHOLD``
exercise the root-orbit-sharded scale-out path.

Results are written three ways: the rendered table
(``results/E10_solver.txt``), machine-readable rows
(``results/E10_solver.json``), and the repo-top-level
``BENCH_solver.json`` that CI uploads as an artifact and guards with
the pinned ``N8_NODE_CEILING`` (the seed's 85,650-node n = 8 anomaly
must stay ≥ 10× beaten).

The JSON additionally carries a ``backend_ablation`` block: the shared
small even rings certified twice over — once by ``exact``
branch-and-bound exhaustion, once by the ``sat`` tier's downward
cardinality walk —
with wall-clock and each regime's native effort metric (B&B nodes vs
CDCL conflicts/decisions).  The optima are asserted equal; the block
is a cost comparison between independent proofs.

``REPRO_BENCH_NS`` (comma-separated ring sizes) restricts the sweep —
CI's smoke job sets ``4,5,6,7,8``.  The sweep itself goes through
``api.solve_batch``'s dispatcher (``repro.dispatch``);
``REPRO_BENCH_TRANSPORT`` (``inproc``/``subprocess``/``spool``) and
``REPRO_BENCH_DISPATCH_WORKERS`` select the transport and fleet size —
the default single-worker in-process transport keeps per-n timings
exact.
"""

from __future__ import annotations

import os
import time

from repro.analysis.experiments import experiment_solver_certification
from repro.core.engine import N8_NODE_CEILING

NS = (4, 5, 6, 7, 8, 9, 10, 11)
SHARD_THRESHOLD = 11


def _ns_from_env() -> tuple[int, ...]:
    raw = os.environ.get("REPRO_BENCH_NS")
    if not raw:
        return NS
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _dispatch_from_env() -> dict:
    kwargs: dict = {}
    transport = os.environ.get("REPRO_BENCH_TRANSPORT")
    if transport:
        kwargs["transport"] = transport
    raw_workers = os.environ.get("REPRO_BENCH_DISPATCH_WORKERS")
    if raw_workers:
        kwargs["dispatch_workers"] = int(raw_workers)
    return kwargs


def _backend_ablation(ns: tuple[int, ...]) -> list[dict]:
    """Prove the same ρ(n) optima under the ``exact`` branch-and-bound
    and the ``sat`` certification tier, hints off, and report each
    regime's native effort metric side by side: B&B nodes vs CDCL
    conflicts/decisions.  The optima must agree — the ablation is a
    cost comparison between two independent proofs, not a tolerance
    band."""
    from repro.api import CoverSpec, solve
    from repro.sat.engines import resolve_engine

    rows = []
    for n in ns:
        row: dict = {"n": n, "engine": resolve_engine()}
        for backend in ("exact", "sat"):
            spec = CoverSpec.for_ring(n, backend=backend, use_hints=False)
            start = time.perf_counter()
            res = solve(spec, cache=None)
            seconds = time.perf_counter() - start
            assert res.status == "proven_optimal", (backend, n, res.status)
            row[f"{backend}_seconds"] = seconds
            row[f"{backend}_optimum"] = res.stats.best_value
            if backend == "exact":
                row["exact_nodes"] = res.stats.nodes
            else:
                cert = res.sat_certificate
                row["sat_conflicts"] = cert["conflicts"]
                row["sat_decisions"] = cert["decisions"]
        assert row["exact_optimum"] == row["sat_optimum"], (
            f"n={n}: exact and sat disagree on the optimum — "
            f"{row['exact_optimum']} vs {row['sat_optimum']}"
        )
        rows.append(row)
    return rows


def test_bench_solver_certification(benchmark, save_table, save_json):
    ns = _ns_from_env()
    result = benchmark.pedantic(
        experiment_solver_certification,
        args=(ns,),
        kwargs={"shard_threshold": SHARD_THRESHOLD, **_dispatch_from_env()},
        rounds=1, iterations=1, warmup_rounds=0,
    )
    table = result.render()
    save_table("E10_solver", table)

    # Backend ablation: the same optima certified twice over the shared
    # small-even rings — B&B exhaustion vs SAT walk — comparing each
    # tier's native effort metric (nodes vs conflicts/decisions).
    backend_ns = tuple(n for n in ns if n in (6, 7, 8))
    backend_rows = _backend_ablation(backend_ns) if backend_ns else []

    save_json(
        "E10_solver",
        {
            "experiment": "E10",
            "title": "exact solver certification of rho(n)",
            "n8_node_ceiling": N8_NODE_CEILING,
            "rows": result.rows,
            "backend_ablation": backend_rows,
        },
        mirror="BENCH_solver.json",
    )
    print("\n" + table)
    for row in backend_rows:
        print(
            f"backend-ablation n={row['n']} optimum={row['exact_optimum']} "
            f"exact={row['exact_seconds']:.3f}s/{row['exact_nodes']} nodes "
            f"sat[{row['engine']}]={row['sat_seconds']:.3f}s/"
            f"{row['sat_conflicts']} conflicts/{row['sat_decisions']} decisions"
        )

    for row in result.rows:
        assert row["match"], f"solver disagrees with ρ({row['n']})"
        assert row["proven"], f"ρ({row['n']}) not proven optimal"
        if row["n"] == 8:
            assert row["nodes"] <= N8_NODE_CEILING, (
                f"n=8 node-count regression: {row['nodes']} > {N8_NODE_CEILING}"
            )
