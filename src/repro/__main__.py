"""Command-line interface over the declarative :mod:`repro.api` layer.

Subcommands::

    python -m repro solve --n 11                  # one job, auto-routed
    python -m repro solve --n 10 --backend exact --no-hints --json
    python -m repro solve --n 8 --backend exact --no-hints \
        --checkpoint-dir ckpts --resume --preempt-after 800n  # resumable
    python -m repro solve --n 8 --objective min_total_size   # ADM-count optimum
    python -m repro solve --n 7 --allowed-sizes 3 # restricted cover (C3 only)
    python -m repro sweep --ns 4..11 --json       # many jobs, shared cache
    python -m repro sweep --ns 4..11 --transport subprocess --workers 2
    python -m repro sweep --ns 4..8 --objective min_total_size --json
    python -m repro objectives                    # objective × backend matrix
    python -m repro backends                      # backend capability matrix
    python -m repro solve --n 12 --backend sat --no-hints  # SAT certification
    python -m repro worker                        # serve dispatcher jobs (stdio)
    python -m repro worker --spool DIR            # serve a shared spool dir
    python -m repro serve --port 8323             # HTTP solver service (repro.serve)
    python -m repro experiments E1 E10            # regenerate paper tables
    python -m repro experiments --list
    python -m repro rho 6..20                     # closed-form ρ(n) table

``--objective`` selects a registered covering objective
(``min_blocks`` — the paper's ρ — by default; ``min_total_size`` — the
ring-size-sum / ADM-count objective of refs [3]/[4]); ``--allowed-sizes
L1,L2,...`` restricts candidate cycle lengths (Manthey-style restricted
cycle covers).  ``objectives`` prints the registry with each
objective's certificate arguments and the backends that take it.

``sweep --transport {inproc,subprocess,spool}`` fans the jobs out
through the distributed dispatcher (:mod:`repro.dispatch`): with
``--transport`` set, ``--workers`` sizes the dispatch pool (it is *not*
written into the specs, so the envelopes stay byte-identical to a
serial run's), ``--job-timeout`` adds a per-job deadline with
retry-with-exclusion, and ``--spool DIR`` names the shared spool
directory external ``python -m repro worker --spool DIR`` workers are
watching.  ``worker`` is the remote end of both worker protocols.
``--degrade heuristic`` arms graceful degradation (jobs that exhaust
their retries fall back to a verified heuristic envelope with
degradation provenance instead of failing the sweep), ``--lease-timeout``
tunes the spool transport's heartbeat-staleness reclaim window, and
``--fault-plan`` (sweep and worker) injects a seeded
:mod:`repro.dispatch.faults` plan — the chaos harness CI drives.

``solve --checkpoint-dir DIR`` makes a long proof *resumable*: a run
preempted by ``--preempt-after`` (``'800n'`` nodes or seconds) or by a
``--time-budget`` deadline exits with status 3 leaving a checkpoint in
DIR, and ``--resume`` picks the proof up where it stopped.  The final
envelope is byte-identical however many preempt/resume cycles produced
it.  ``worker --preempt-after / --checkpoint-every`` give spool workers
the same powers (checkpoint, bow out, let any worker resume).

``solve`` and ``sweep`` go through ``api.solve`` — spec construction,
backend routing, the content-addressed result cache (default
``$REPRO_CACHE_DIR`` or ``~/.cache/repro``; ``--no-cache`` disables,
``--cache DIR`` redirects).  ``--json`` prints the deterministic
``Result`` envelope(s), so two runs of the same jobs emit *byte
identical* output — cache hits are reported on stderr, never mixed
into the payload.

The pre-subcommand spelling (``python -m repro E1 E2``, ``--list``,
``--rho 6..20``) keeps working as a legacy alias of ``experiments`` /
``rho``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from types import ModuleType

# The declarative API's layers (spec, router, backend registry, cache,
# envelope) load with the CLI: solve, sweep, worker and serve all run
# them, and perfbench/clichild.py traces the layers that importing this
# module has loaded.  The search tiers, the SAT subsystem and the
# dispatcher still load only when a command routes to them.
from .api.service import solve

_SUBCOMMANDS = (
    "solve", "sweep", "objectives", "backends", "worker", "serve", "experiments", "rho"
)

# E10's default range tracks the certified sweep (ρ(n) proven through
# n = 11 — BENCH_solver.json); the time budget gates the tail so a
# full `experiments` run stays interactive even on slow hardware.
_E10_NS = (4, 5, 6, 7, 8, 9, 10, 11)
_E10_SHARD_THRESHOLD = 11
_E10_TIME_BUDGET = 60.0

# Each runner takes the experiment harness module: it is imported only on
# the experiment paths, because it pulls in networkx (through the
# extensions), which the solve path never needs.
_EXPERIMENTS: dict[str, tuple[str, Callable[[ModuleType], object]]] = {
    "E1": ("Theorem 1 (odd n)", lambda X: X.experiment_theorem1((5, 7, 9, 11, 13, 15, 17, 21))),
    "E2": ("Theorem 2 (even n)", lambda X: X.experiment_theorem2((4, 6, 8, 10, 12, 14, 16, 18))),
    "E3": ("paper worked example", lambda X: X.experiment_paper_example()),
    "E4": ("cost model", lambda X: X.experiment_cost_model((7, 9, 11, 12, 13))),
    "E5": ("non-DRC baselines", lambda X: X.experiment_nondrc_baseline((5, 7, 9, 11, 13))),
    "E6": ("survivability sweep", lambda X: X.experiment_survivability((6, 8, 9, 11))),
    "E8": ("λK_n extension", lambda X: X.experiment_lambda_fold((5, 7, 6, 8), (1, 2, 3))),
    "E9": ("other topologies", lambda X: X.experiment_topologies()),
    "E10": (
        "exact solver certification (n ≤ 11)",
        lambda X: X.experiment_solver_certification(
            _E10_NS,
            shard_threshold=_E10_SHARD_THRESHOLD,
            time_budget=_E10_TIME_BUDGET,
        ),
    ),
    "E11": ("protection vs restoration", lambda X: X.experiment_protection_vs_restoration((8, 11, 14))),
    "E12": ("dual-failure degradation", lambda X: X.experiment_dual_failures((8, 10, 12))),
}


def _parse_range(spec: str) -> list[int]:
    """argparse ``type=`` for ring-size ranges: ``LO..HI`` or ``A,B,C``."""
    try:
        if ".." in spec:
            lo, hi = spec.split("..", 1)
            ns = list(range(int(lo), int(hi) + 1))
        else:
            ns = [int(s) for s in spec.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"range must be LO..HI or comma-separated integers, got {spec!r}"
        ) from None
    if not ns:
        raise argparse.ArgumentTypeError(f"range {spec!r} is empty")
    return ns


# ---------------------------------------------------------------------------
# solve / sweep (the api-backed subcommands)
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(s) for s in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"allowed sizes must be comma-separated integers, got {text!r}"
        ) from None


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    from .api import available_backends
    from .core.objective import available_objectives

    parser.add_argument("--lam", type=int, default=1, metavar="λ",
                        help="demand multiplicity (λK_n; default 1)")
    parser.add_argument("--max-size", type=int, default=4,
                        help="largest candidate cycle length (default 4)")
    parser.add_argument("--objective", choices=available_objectives(),
                        default="min_blocks",
                        help="registered covering objective (default min_blocks; "
                             "see `python -m repro objectives`)")
    parser.add_argument("--allowed-sizes", type=_parse_sizes, metavar="L1,L2,...",
                        help="restrict candidate cycle lengths (Manthey-style "
                             "restricted covers), e.g. --allowed-sizes 3")
    parser.add_argument("--backend", choices=available_backends(),
                        help="pin a backend instead of routing")
    parser.add_argument("--no-optimal", action="store_true",
                        help="accept a heuristic (uncertified) covering")
    parser.add_argument("--no-hints", action="store_true",
                        help="certification mode: no warm-start upper bounds")
    parser.add_argument("--workers", type=int, help="worker processes for sharded solves")
    parser.add_argument("--shard-threshold", type=int, metavar="N",
                        help="ring sizes ≥ N use the sharded exact backend")
    parser.add_argument("--node-limit", type=int, help="branch-and-bound node cap")
    parser.add_argument("--time-budget", type=float, metavar="SECONDS",
                        help="wall-clock budget for exact solves")
    parser.add_argument("--json", action="store_true",
                        help="print deterministic Result envelope JSON")
    parser.add_argument("--cache", metavar="DIR",
                        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true", help="disable the result cache")


def _add_checkpoint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="persist resumable search checkpoints under DIR; "
                             "a preempted or killed solve leaves its state there")
    parser.add_argument("--resume", action="store_true",
                        help="resume from an existing checkpoint in "
                             "--checkpoint-dir instead of starting fresh")
    parser.add_argument("--preempt-after", metavar="X",
                        help="preempt the solve after X ('800n' = 800 search "
                             "nodes, '2.5' = seconds), flush a checkpoint, and "
                             "exit with status 3")
    parser.add_argument("--checkpoint-every", type=int, metavar="NODES",
                        help="also flush a checkpoint every NODES search nodes")


def _add_dispatch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--transport", choices=("inproc", "subprocess", "spool"),
        help="fan the sweep out through the distributed dispatcher; "
             "--workers then sizes the dispatch pool",
    )
    parser.add_argument("--job-timeout", type=float, metavar="SECONDS",
                        help="subprocess transport: per-job deadline (dead "
                             "jobs retry on another worker); the spool "
                             "transport reclaims on leases instead")
    parser.add_argument("--max-retries", type=int, default=2,
                        help="worker deaths tolerated per job (default 2)")
    parser.add_argument("--spool", metavar="DIR",
                        help="spool directory for --transport spool "
                             "(default: a private temp dir)")
    parser.add_argument("--degrade", choices=("heuristic",),
                        help="when a job exhausts its retries or deadline, fall "
                             "back to a verified heuristic envelope (stamped "
                             "with degradation provenance) instead of failing "
                             "the whole sweep")
    parser.add_argument("--lease-timeout", type=float, metavar="SECONDS",
                        help="spool transport: reclaim a claim once its "
                             "heartbeat lease has been frozen this long "
                             "(default 5; heartbeating workers are never "
                             "reclaimed)")
    parser.add_argument("--fault-plan", metavar="PLAN",
                        help="fault-injection plan (inline JSON or @file) armed "
                             "and exported to spawned workers — chaos testing "
                             "only")


def _spec_from_args(args: argparse.Namespace, n: int):
    from .api import CoverSpec

    # With --transport, --workers sizes the *dispatch* pool; keeping it
    # out of the spec keeps the spec hash (and therefore the envelope
    # bytes and cache entry) identical to a serial run's.
    dispatching = getattr(args, "transport", None) is not None
    return CoverSpec.for_ring(
        n,
        lam=args.lam,
        max_size=args.max_size,
        objective=args.objective,
        allowed_sizes=args.allowed_sizes,
        backend=args.backend,
        require_optimal=not args.no_optimal,
        use_hints=not args.no_hints,
        workers=None if dispatching else args.workers,
        shard_threshold=args.shard_threshold,
        node_limit=args.node_limit,
        time_budget=args.time_budget,
    )


def _arm_fault_plan(raw: str) -> None:
    """Parse a ``--fault-plan`` argument, arm its tokens in a private
    temp directory (each fault then fires exactly once across the
    fleet), and export it so spawned workers inherit it."""
    import os
    import tempfile

    from .dispatch.faults import _load_plan_text

    plan = _load_plan_text(raw).arm(tempfile.mkdtemp(prefix="repro-faults-"))
    os.environ.update(plan.env())


def _cache_from_args(args: argparse.Namespace):
    from .api import ResultCache, default_cache_dir

    if args.no_cache:
        return None
    if args.cache:
        return ResultCache(args.cache)
    return ResultCache(default_cache_dir())


def _solve_resumable(spec, cache, ckpt_store, budget, args: argparse.Namespace):
    """One checkpointed `solve` call: honour --resume (or clear stale
    state without it), and turn a --preempt-after budget into a preempt
    callback whose node counts continue from the resumed checkpoint —
    so repeated --resume runs each advance the proof by the full budget."""
    from .api.checkpoints import budget_preempt

    prior = None
    if ckpt_store is not None:
        if getattr(args, "resume", False):
            prior = ckpt_store.load(spec.spec_hash)
        else:
            ckpt_store.delete(spec.spec_hash)
    return solve(
        spec,
        cache=cache,
        checkpoints=ckpt_store,
        checkpoint_every=getattr(args, "checkpoint_every", None),
        preempt=budget_preempt(budget, prior),
    )


def _note_cache(result) -> None:
    if result.from_cache:
        print(
            f"[cache] hit {result.spec.spec_hash[:12]} (n={result.spec.n})",
            file=sys.stderr,
        )


def _note_cache_stats(cache) -> None:
    """One stderr line of ResultCache counters after a batch.  The key
    order matters: CI greps for '[cache] hit …' per-entry lines, so
    this summary leads with `entries=` to stay un-matchable."""
    if cache is None:
        return
    stats = cache.stats()
    print(
        "[cache] entries={entries} hits={hits} misses={misses} "
        "evictions={evictions} coalesced={coalesced} "
        "hit_rate={hit_rate:.2f}".format(**stats),
        file=sys.stderr,
    )


def _run_jobs(ns: list[int], args: argparse.Namespace, *, single: bool = False) -> int:
    from .util.errors import ReproError
    from .util.tables import Table

    cache = _cache_from_args(args)
    results = []
    if getattr(args, "transport", None):
        from .dispatch import dispatch_batch

        try:
            if getattr(args, "fault_plan", None):
                _arm_fault_plan(args.fault_plan)
            specs = [_spec_from_args(args, n) for n in ns]
            report = dispatch_batch(
                specs,
                transport=args.transport,
                workers=args.workers,
                cache=cache,
                job_timeout=args.job_timeout,
                max_retries=args.max_retries,
                spool_dir=args.spool,
                degrade=args.degrade,
                lease_timeout=args.lease_timeout,
            )
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for result in report.results:
            _note_cache(result)
            results.append((result, report.seconds.get(result.spec_hash, 0.0)))
        print(f"[dispatch] {report.summary()}", file=sys.stderr)
    else:
        from .util.errors import SolverPreempted

        ckpt_store = None
        if getattr(args, "checkpoint_dir", None):
            from .api import CheckpointStore

            ckpt_store = CheckpointStore(args.checkpoint_dir)
        budget = None
        if getattr(args, "preempt_after", None):
            from .api.checkpoints import parse_preempt_after

            try:
                budget = parse_preempt_after(args.preempt_after)
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        checkpointing = ckpt_store is not None or budget is not None
        for n in ns:
            t0 = time.perf_counter()
            try:
                spec = _spec_from_args(args, n)
                if checkpointing:
                    result = _solve_resumable(spec, cache, ckpt_store, budget, args)
                else:
                    result = solve(spec, cache=cache)
            except SolverPreempted:
                nodes = ckpt_store.load(spec.spec_hash).nodes if ckpt_store else "?"
                print(
                    f"[preempted] n={n} checkpointed at {nodes} nodes; "
                    f"re-run with --resume to continue",
                    file=sys.stderr,
                )
                return 3
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            elapsed = time.perf_counter() - t0
            _note_cache(result)
            results.append((result, elapsed))

    _note_cache_stats(cache)

    if args.json:
        payloads = [result.to_payload() for result, _ in results]
        # `solve` emits one envelope; `sweep` always emits an array, even
        # for a one-element range — scripts parse a stable shape.
        out = payloads[0] if single else payloads
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0

    # Objective-axis jobs (anything beyond unrestricted min_blocks) get
    # an extra value column; the legacy table shape stays untouched.
    extended = any(result.objective_value is not None for result, _ in results)
    headers = ["n", "λ", "backend", "status", "blocks", "lower bnd", "nodes", "seconds", "origin"]
    if extended:
        headers.insert(5, "value")
    table = Table("DRC covering jobs (repro.api)", headers)
    for result, elapsed in results:
        row = [
            result.spec.n,
            result.spec.lam,
            result.backend,
            result.status,
            result.num_blocks,
            result.lower_bound,
            result.stats.nodes,
            round(elapsed, 3),
            "cache" if result.from_cache else "solved",
        ]
        if extended:
            row.insert(5, result.objective_value if result.objective_value is not None else "-")
        table.add_row(*row)
    print(table.render())
    if single:
        result = results[0][0]
        print("\nblocks:", " ".join(str(blk.vertices) for blk in result.covering.blocks))
    return 0


def _cmd_solve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro solve",
        description="Solve one covering job through the declarative API.",
    )
    parser.add_argument("--n", type=int, required=True, help="ring order")
    _add_spec_arguments(parser)
    _add_checkpoint_arguments(parser)
    args = parser.parse_args(argv)
    return _run_jobs([args.n], args, single=True)


def _cmd_sweep(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sweep",
        description="Solve a range of ring sizes through the declarative API.",
    )
    parser.add_argument("--ns", type=_parse_range, required=True, metavar="RANGE",
                        help="ring sizes (e.g. 4..11 or 5,9,14)")
    _add_spec_arguments(parser)
    _add_dispatch_arguments(parser)
    args = parser.parse_args(argv)
    return _run_jobs(args.ns, args)


def _cmd_objectives(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro objectives",
        description=(
            "List registered covering objectives: for each, the backends "
            "that accept it (probed on uniform K_n jobs) and the arguments "
            "of its lower-bound certificate."
        ),
    )
    parser.parse_args(argv)
    from .api import CoverSpec, available_backends, get_backend
    from .core.objective import available_objectives, get_objective
    from .util.tables import Table

    table = Table(
        "Covering objectives (repro.core.objective registry)",
        ["objective", "backends", "certificate", "description"],
    )
    for name in available_objectives():
        obj = get_objective(name)
        # Probe odd and even uniform rings: a backend claims the
        # objective when it takes either shape (closed_form is
        # per-parity for some objectives).
        probes = [
            CoverSpec.for_ring(9, objective=name),
            CoverSpec.for_ring(8, objective=name),
        ]
        supported = [
            backend
            for backend in available_backends()
            if any(get_backend(backend).supports(spec) for spec in probes)
        ]
        cert_args = obj.instance_certificate(probes[1].instance()).arguments
        table.add_row(
            name,
            ",".join(supported),
            "+".join(arg.name for arg in cert_args),
            obj.description,
        )
    print(table.render())
    return 0


def _cmd_backends(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro backends",
        description=(
            "List registered backends: the objectives each accepts (probed "
            "on uniform K_n jobs), the result status it emits, its "
            "optimality certificate, and engine/size notes."
        ),
    )
    parser.parse_args(argv)
    from .api import CoverSpec, available_backends, get_backend
    from .api.backends import EXACT_INSTANCE_MAX_N, EXACT_KN_MAX_N
    from .core.objective import available_objectives
    from .sat import SAT_MAX_N, available_engines, resolve_engine
    from .util.tables import Table

    notes = {
        "closed_form": "Theorem 1/2 constructions; O(n²), any n",
        "exact": (
            f"branch-and-bound; K_n n ≤ {EXACT_KN_MAX_N}, "
            f"instances n ≤ {EXACT_INSTANCE_MAX_N}"
        ),
        "exact_sharded": f"root-orbit sharded B&B; uniform K_n n ≤ {EXACT_KN_MAX_N}",
        "heuristic": "greedy + local search; any n, never certified",
        "sat": (
            f"cardinality-SAT walk; n ≤ {SAT_MAX_N}, REPRO_SAT="
            f"{resolve_engine()} (runnable: {','.join(available_engines())})"
        ),
    }
    status = {
        "closed_form": "closed_form",
        "exact": "proven_optimal",
        "exact_sharded": "proven_optimal",
        "heuristic": "feasible",
        "sat": "proven_optimal",
    }
    certificate = {
        "closed_form": "formula lower bounds",
        "exact": "branch_and_bound_exhaustive",
        "exact_sharded": "branch_and_bound_exhaustive",
        "heuristic": "(none)",
        "sat": "sat_unsat_core (replayable)",
    }
    table = Table(
        "Backends (repro.api registry)",
        ["backend", "objectives", "status", "certificate", "notes"],
    )
    for name in available_backends():
        backend = get_backend(name)
        objectives = [
            obj
            for obj in available_objectives()
            if any(
                backend.supports(CoverSpec.for_ring(n, objective=obj))
                for n in (9, 8)
            )
        ]
        table.add_row(
            name,
            ",".join(objectives) or "(probe-dependent)",
            status.get(name, "?"),
            certificate.get(name, "?"),
            notes.get(name, ""),
        )
    print(table.render())
    return 0


def _cmd_worker(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro worker",
        description=(
            "Serve dispatcher jobs: with no arguments, read spec-JSON job "
            "lines from stdin and emit Result envelopes on stdout (the "
            "subprocess transport); with --spool DIR, poll a shared spool "
            "directory (claim jobs by atomic rename, write results "
            "atomically) until DIR/STOP appears."
        ),
    )
    parser.add_argument("--spool", metavar="DIR",
                        help="serve a spool directory instead of stdio")
    parser.add_argument("--poll", type=float, default=0.05, metavar="SECONDS",
                        help="spool polling interval (default 0.05)")
    parser.add_argument("--max-jobs", type=int, metavar="K",
                        help="exit after serving K spool jobs")
    parser.add_argument("--exit-when-idle", action="store_true",
                        help="exit when the spool has no eligible jobs")
    parser.add_argument("--worker-id", metavar="ID",
                        help="spool worker id (default: w<pid>)")
    parser.add_argument("--checkpoint-every", type=int, metavar="NODES",
                        help="flush a resumable checkpoint every NODES search "
                             "nodes (spool default: 2048)")
    parser.add_argument("--preempt-after", metavar="X",
                        help="spool mode: bow out of a proof after X ('800n' "
                             "nodes or seconds), checkpoint it, and hand the "
                             "job back for any worker to resume")
    parser.add_argument("--heartbeat-every", type=float, metavar="SECONDS",
                        help="spool mode: renew the claim's heartbeat lease at "
                             "most this often (default 0.5)")
    parser.add_argument("--fault-plan", metavar="PLAN",
                        help="fault-injection plan (inline JSON or @file) for "
                             "this worker — chaos testing only")
    args = parser.parse_args(argv)
    from .dispatch import spool_worker_loop, stdio_worker_loop
    from .dispatch.faults import FAULT_PLAN_ENV, _load_plan_text
    from .dispatch.worker import (
        HEARTBEAT_EVERY_DEFAULT,
        SPOOL_CHECKPOINT_EVERY_DEFAULT,
    )

    if args.fault_plan:
        import os

        # Validate eagerly (a typo should fail the command line, not the
        # first job) and pass through the environment, the same door the
        # dispatcher-side --fault-plan uses.
        os.environ[FAULT_PLAN_ENV] = _load_plan_text(args.fault_plan).to_json()
    if args.spool:
        return spool_worker_loop(
            args.spool,
            poll=args.poll,
            exit_when_idle=args.exit_when_idle,
            max_jobs=args.max_jobs,
            worker_id=args.worker_id,
            checkpoint_every=(
                args.checkpoint_every
                if args.checkpoint_every is not None
                else SPOOL_CHECKPOINT_EVERY_DEFAULT
            ),
            preempt_after=args.preempt_after,
            heartbeat_every=(
                args.heartbeat_every
                if args.heartbeat_every is not None
                else HEARTBEAT_EVERY_DEFAULT
            ),
        )
    return stdio_worker_loop(checkpoint_every=args.checkpoint_every)


def _cmd_serve(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description=(
            "Run the long-lived HTTP solver service (repro.serve): "
            "POST /v1/solve answers from the result cache when it can, "
            "coalesces concurrent identical submissions onto one solve, "
            "and queues the rest in a persistent SQLite job ledger — a "
            "restarted server resumes unfinished proofs from their "
            "checkpoints.  SIGTERM/SIGINT drain gracefully (exit 3 when "
            "a preempted proof is left checkpointed, else 0)."
        ),
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8323,
                        help="bind port (default 8323; 0 picks a free one)")
    parser.add_argument("--workers", type=int, default=1,
                        help="solver worker threads (default 1)")
    parser.add_argument("--transport", choices=("inproc", "subprocess", "spool"),
                        help="run solves through the dispatcher transport "
                             "instead of in-process (in-process gives live "
                             "SSE progress and checkpoint resume)")
    parser.add_argument("--ledger", metavar="DIR",
                        help="persistent state directory: jobs.sqlite3 + "
                             "checkpoints/ (default: <cache dir>/serve)")
    parser.add_argument("--cache", metavar="DIR",
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the result cache")
    parser.add_argument("--max-inflight-weight", type=float, metavar="W",
                        help="admission budget in 4**n·λ cost-weight units; "
                             "submissions beyond it get 429 + Retry-After "
                             "(an idle service always admits)")
    parser.add_argument("--degrade", choices=("heuristic",),
                        help="arm graceful degradation (rides the dispatcher; "
                             "implies --transport inproc unless one is given)")
    parser.add_argument("--checkpoint-every", type=int, default=256,
                        metavar="NODES",
                        help="flush resumable checkpoints every NODES search "
                             "nodes (default 256)")
    parser.add_argument("--preempt-after", metavar="X",
                        help="self-drain budget per proof slice ('800n' nodes "
                             "or seconds): preempt the active proof, leave it "
                             "checkpointed + pending, and exit 3 — restart to "
                             "resume (testing/ops drills)")
    args = parser.parse_args(argv)

    from .api import default_cache_dir
    from .serve import SolverService, run_server
    from .util.errors import ReproError

    cache = _cache_from_args(args)
    ledger_dir = args.ledger or (default_cache_dir() / "serve")
    preempt_after = None
    if args.preempt_after:
        from .api.checkpoints import parse_preempt_after

        try:
            preempt_after = parse_preempt_after(args.preempt_after)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    service = SolverService(
        ledger_dir,
        cache=cache,
        workers=args.workers,
        transport=args.transport,
        degrade=args.degrade,
        max_inflight_weight=args.max_inflight_weight,
        checkpoint_every=args.checkpoint_every,
        preempt_after=preempt_after,
    )
    try:
        return run_server(service, args.host, args.port)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# experiments / rho
# ---------------------------------------------------------------------------


def _list_experiments() -> int:
    for key, (desc, _) in _EXPERIMENTS.items():
        print(f"{key:4s} {desc}")
    return 0


def _run_experiments(selected: list[str]) -> int:
    selected = selected or list(_EXPERIMENTS)
    unknown = [e for e in selected if e not in _EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)} (try --list)", file=sys.stderr)
        return 2
    from .analysis import experiments

    for key in selected:
        desc, runner = _EXPERIMENTS[key]
        print(f"\n# {key} — {desc}\n")
        print(runner(experiments).render())
    return 0


def _cmd_experiments(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiments",
        description="Regenerate tables from 'A Note on Cycle Covering' (SPAA 2001).",
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    args = parser.parse_args(argv)
    if args.list:
        return _list_experiments()
    return _run_experiments(args.experiments)


def _print_rho(ns: list[int]) -> int:
    from .core.formulas import optimal_excess, rho, theorem_cycle_mix
    from .util.tables import Table

    table = Table("ρ(n) — minimum DRC-covering sizes", ["n", "ρ(n)", "C3", "C4", "excess"])
    try:
        for n in ns:
            mix = theorem_cycle_mix(n)
            table.add_row(n, rho(n), mix[3], mix[4], optimal_excess(n))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(table.render())
    return 0


def _cmd_rho(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro rho",
        description="Print closed-form ρ(n) over a range.",
    )
    parser.add_argument("range", type=_parse_range, metavar="RANGE",
                        help="e.g. 6..20 or 5,9,14")
    args = parser.parse_args(argv)
    return _print_rho(args.range)


# ---------------------------------------------------------------------------
# entry point (subcommands + the legacy flat spelling)
# ---------------------------------------------------------------------------


def _legacy_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Regenerate tables from 'A Note on Cycle Covering' (SPAA 2001). "
            "Subcommands: solve, sweep, experiments, rho (see --help of each)."
        ),
    )
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--list", action="store_true", help="list experiments and exit")
    parser.add_argument(
        "--rho", type=_parse_range, metavar="RANGE",
        help="print ρ(n) for n in RANGE (e.g. 6..20 or 5,9,14)",
    )
    args = parser.parse_args(argv)
    if args.list:
        return _list_experiments()
    if args.rho:
        return _print_rho(args.rho)
    return _run_experiments(args.experiments)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
        if command == "solve":
            return _cmd_solve(rest)
        if command == "sweep":
            return _cmd_sweep(rest)
        if command == "objectives":
            return _cmd_objectives(rest)
        if command == "backends":
            return _cmd_backends(rest)
        if command == "worker":
            return _cmd_worker(rest)
        if command == "serve":
            return _cmd_serve(rest)
        if command == "experiments":
            return _cmd_experiments(rest)
        return _cmd_rho(rest)
    return _legacy_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
