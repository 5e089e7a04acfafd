"""The repository's benchmark: time-to-proof, cold CLI solves and the
worker fleet, measured end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload bnb_certify --seed 1 --seconds 10 --trace 0

One run sets up (imports, inputs, an untimed warm-up), then runs whole
rounds of the workload's operations until ``--seconds`` have passed,
checks every output with ``covercheck`` (which shares no code with
``repro``), and prints one JSON object as its last line of output.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics.  The
workloads, metrics and the layer map are described in README.md.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from covercheck import envelope_problems  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "api.route_us": "us",
    "api.cache_get_us": "us",
    "api.cache_put_us": "us",
    "api.envelope_json_us": "us",
    "api.validate_ms": "ms",
    "engine.nodes": "count",
    "engine.search_ms": "ms",
    "engine.nodes_per_s": "1/s",
    "improve.greedy_ms": "ms",
    "improve.local_search_ms": "ms",
    "closed_form.construct_ms": "ms",
    "cli.interp_ms": "ms",
    "cli.import_ms": "ms",
    "sat.cnf_build_ms": "ms",
    "sat.cdcl_solve_s": "s",
    "sat.conflicts": "count",
    "sat.propagations": "count",
    "sat.props_per_s": "1/s",
    "sat.variables": "count",
    "sat.clauses": "count",
    "dispatch.job_p50_ms": "ms",
    "dispatch.inproc_job_p50_ms": "ms",
    "dispatch.cached": "count",
    "dispatch.retries": "count",
    "dispatch.worker_deaths": "count",
    "certify_sweep_ms": "ms",
    "cold_start_ms": "ms",
    "theorem2_s": "s",
    "sweep_jobs_per_s": "1/s",
    "cache_pass_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def process_age() -> float:
    """Seconds since this process was started, by the kernel's clock;
    falls back to the time since this script's first line."""
    own = time.perf_counter() - _STARTED
    try:
        with open("/proc/self/stat", "rb") as fh:
            fields = fh.read().rsplit(b")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return own
    return age if own <= age < own + 10.0 else own


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Round:
    """The timed operations of one round and what they produced."""

    def __init__(self, index: int, traced: bool) -> None:
        self.index = index
        self.traced = traced
        self.seconds = 0.0  # summed latency of the round's timed operations
        self.attempted = 0
        self.failed = 0
        self.phases: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()


class Workload:
    """One named workload: ``setup`` (inputs and warm-up), then rounds."""

    def __init__(self, rng: random.Random, tracer: Tracer, workdir: Path) -> None:
        self.rng = rng
        self.tracer = tracer
        self.workdir = workdir
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)

    def op(self, rnd: Round | None, label: str, fn, jobs: int = 1):
        """Run ``fn`` as one timed operation of ``rnd`` (``None``: the
        untimed warm-up); returns its result and latency, or ``None``
        and the latency when it raised."""
        if rnd is not None:
            rnd.attempted += jobs
        traced = rnd is not None and rnd.traced
        # Each operation starts from a collected heap, so its time does
        # not depend on which operations the seed's order put before it.
        gc.collect()
        try:
            with self.tracer.span("op", label=label) if traced else nullcontext() as span:
                if traced:
                    self.last_op = span["id"]
                t0 = time.perf_counter()
                try:
                    result = fn()
                finally:
                    elapsed = time.perf_counter() - t0
        except Exception:  # an operation that fails is counted, not fatal
            print(f"operation {label} failed:\n{traceback.format_exc()}", file=sys.stderr)
            if rnd is not None:
                rnd.failed += jobs
            else:
                self.problems.append(f"warm-up {label} failed")
            return None, elapsed
        if rnd is not None:
            rnd.seconds += elapsed
        return result, elapsed

    def check(self, label: str, envelope_json: str) -> None:
        envelope = json.loads(envelope_json)
        self.problems.extend(f"{label}: {p}" for p in envelope_problems(envelope))


class ApiSolve(Workload):
    """Certifications through ``api.solve``, one spec per operation."""

    NS: tuple[int, ...] = ()
    WARM_NS: tuple[int, ...] = ()
    BACKEND = ""

    def setup(self) -> None:
        from repro.api import CoverSpec, solve

        self.solve = solve
        self.specs = {
            n: CoverSpec.for_ring(n, backend=self.BACKEND, use_hints=False) for n in self.NS
        }
        for n in self.WARM_NS:
            self.solve_one(None, n)

    def solve_one(self, rnd: Round | None, n: int):
        label = f"{self.BACKEND} n={n}"
        result, _ = self.op(rnd, label, lambda: self.solve(self.specs[n]))
        if result is not None:
            self.check(label, result.to_json())
        return result

    def run_round(self, rnd: Round) -> None:
        for n in self.rng.sample(self.NS, len(self.NS)):
            result = self.solve_one(rnd, n)
            if result is not None:
                self.count(rnd, result)

    def count(self, rnd: Round, result) -> None:
        raise NotImplementedError


class BnbCertify(ApiSolve):
    NS = WARM_NS = tuple(range(4, 12))
    BACKEND = "exact"

    def run_round(self, rnd: Round) -> None:
        super().run_round(rnd)
        rnd.phases["certify_sweep"].append(rnd.seconds)

    def count(self, rnd: Round, result) -> None:
        rnd.counts["engine.nodes"] += result.stats.nodes


class SatWalk(ApiSolve):
    NS = (8, 10, 13)
    # n = 10 alone takes about 20 s; n = 8 runs every layer of the walk,
    # including a real UNSAT step.
    WARM_NS = (8,)
    BACKEND = "sat"

    def count(self, rnd: Round, result) -> None:
        cert = result.sat_certificate
        rnd.counts["sat.conflicts"] += cert["conflicts"]
        rnd.counts["sat.propagations"] += cert["propagations"]
        rnd.counts["sat.variables"] += cert["encoding"]["variables"]
        rnd.counts["sat.clauses"] += cert["encoding"]["clauses"]


class ColdCli(Workload):
    """Fresh ``python -m repro solve --n N --no-cache --json`` processes."""

    # Odd n cost little beyond start-up; even n run the search hidden in
    # the Theorem 2 construction (both residues mod 4).
    ODD = (7, 9, 11, 13, 15, 17, 19, 21, 51, 101)
    EVEN = (12, 14, 20, 22, 28, 30, 38)

    def setup(self) -> None:
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.call(None, 7)

    def call(self, rnd: Round | None, n: int) -> float:
        argv = ["solve", "--n", str(n), "--no-cache", "--json"]
        traced = rnd is not None and rnd.traced
        spans_file = self.workdir / f"spans-{n}.json"
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "clichild.py"), str(spans_file), *argv]
        else:
            cmd = [sys.executable, "-m", "repro", *argv]

        def run():
            spawned = time.perf_counter()
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=150
            )
            if proc.returncode != 0:
                raise RuntimeError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
            return proc, spawned

        done, elapsed = self.op(rnd, f"cli n={n}", run)
        if done is None:
            return elapsed
        proc, spawned = done
        self.check(f"cli n={n}", proc.stdout)
        if traced:
            with open(spans_file, encoding="utf-8") as fh:
                spans = json.load(fh)
            self.samples["cli.interp"].append(spans[0]["start"] - spawned)
            self.tracer.add_foreign(spans, parent=self.last_op)
        return elapsed

    def run_round(self, rnd: Round) -> None:
        calls = self.ODD + self.EVEN
        even = 0.0
        for n in self.rng.sample(calls, len(calls)):
            elapsed = self.call(rnd, n)
            if n % 2:
                rnd.phases["cold_start"].append(elapsed)
            else:
                even += elapsed
        rnd.phases["theorem2"].append(even)


class FleetSweep(Workload):
    """Miss then all-hit passes of ``api.solve_batch`` over the
    subprocess transport, each pass into a fresh cache directory."""

    def setup(self) -> None:
        from repro.api import CoverSpec, solve, solve_batch

        self.solve_batch = solve_batch
        # n = 8, λ = 3, min_blocks is left out: the exact tier does not
        # finish it (see CHANGES.md).
        self.specs = [
            CoverSpec.for_ring(n, lam=lam, objective=objective, use_hints=hints)
            for n in range(4, 10)
            for lam in (1, 2, 3)
            for objective in ("min_blocks", "min_total_size")
            for hints in (True, False)
            if (n, lam, objective) != (8, 3, "min_blocks")
        ]
        # The in-process envelopes every fleet envelope must equal byte
        # for byte: a second, independent path to the same answers.
        self.reference = {}
        for spec in self.specs:
            t0 = time.perf_counter()
            result = solve(spec)
            self.samples["dispatch.inproc_job"].append(time.perf_counter() - t0)
            text = result.to_json()
            self.check(f"in-process {spec.spec_hash[:12]}", text)
            self.reference[spec.spec_hash] = text
        self.passes = 0
        self.run_round(None)

    def batch(self, rnd: Round | None, label: str, specs, cache: Path, hits: bool):
        first = len(self.tracer.returns)
        results, elapsed = self.op(
            rnd,
            label,
            lambda: self.solve_batch(specs, transport="subprocess", workers=2, cache=str(cache)),
            jobs=len(specs),
        )
        if results is None:
            return None, elapsed
        if len(results) != len(specs):
            self.problems.append(f"{label}: {len(results)} envelopes for {len(specs)} specs")
        for spec, result in zip(specs, results):
            text = result.to_json()
            if text != self.reference[spec.spec_hash]:
                self.problems.append(f"{label}: envelope of {spec.spec_hash[:12]} differs in-process")
            self.check(label, text)
            if hits and not result.from_cache:
                self.problems.append(f"{label}: {spec.spec_hash[:12]} missed the cache")
        if rnd is not None and rnd.traced:
            for report in self.tracer.returns[first:]:
                rnd.counts["dispatch.cached"] += report.cached
                rnd.counts["dispatch.retries"] += report.retries
                rnd.counts["dispatch.worker_deaths"] += report.worker_deaths
                if not hits:
                    self.samples["dispatch.job"].extend(report.seconds.values())
        return results, elapsed

    def run_round(self, rnd: Round | None) -> None:
        specs = self.rng.sample(self.specs, len(self.specs))
        cache = self.workdir / f"cache-{self.passes}"
        self.passes += 1
        try:
            filled, miss = self.batch(rnd, "miss pass", specs, cache, hits=False)
            # The hit pass runs even after a failed miss pass, so every
            # round attempts the same jobs.
            read, hit = self.batch(rnd, "hit pass", specs, cache, hits=filled is not None)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        if rnd is not None and filled is not None and read is not None:
            rnd.phases["sweep_jobs_per_s"].append(len(specs) / miss)
            rnd.phases["cache_pass"].append(hit)


WORKLOADS = {
    "bnb_certify": BnbCertify,
    "sat_walk": SatWalk,
    "cold_cli": ColdCli,
    "fleet_sweep": FleetSweep,
}


def layer_metrics(bench: Workload, rounds: list[Round]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    per_round: dict[int, Counter] = defaultdict(Counter)
    per_call: dict[str, list[float]] = defaultdict(list)
    spans: Counter = Counter()
    for span, own in self_times(bench.tracer.spans):
        per_round[span["round"]][span["name"]] += own
        per_call[span["name"]].append(own)
        spans[span["round"]] += 1

    def round_sum(name: str) -> float:
        return median(per_round[r.index][name] for r in traced)

    def per_second(count: str, busy: str) -> float:
        return median(
            r.counts[count] / per_round[r.index][busy]
            for r in traced
            if per_round[r.index][busy] > 0
        )

    def counted(name: str) -> int:
        return int(median(r.counts[name] for r in traced))

    def phase(name: str) -> float:
        return median(x for r in plain for x in r.phases[name])

    return {
        "api.route_us": median(per_call["api.route"]) * 1e6,
        "api.cache_get_us": median(per_call["api.cache_get"]) * 1e6,
        "api.cache_put_us": median(per_call["api.cache_put"]) * 1e6,
        "api.envelope_json_us": median(per_call["api.envelope_json"]) * 1e6,
        "api.validate_ms": round_sum("api.validate") * 1e3,
        "engine.nodes": counted("engine.nodes"),
        "engine.search_ms": round_sum("engine.search") * 1e3,
        "engine.nodes_per_s": per_second("engine.nodes", "engine.search"),
        "improve.greedy_ms": round_sum("improve.greedy") * 1e3,
        "improve.local_search_ms": round_sum("improve.local_search") * 1e3,
        "closed_form.construct_ms": round_sum("closed_form.construct") * 1e3,
        "cli.interp_ms": median(bench.samples["cli.interp"]) * 1e3,
        "cli.import_ms": median(per_call["cli.import"]) * 1e3,
        "sat.cnf_build_ms": round_sum("sat.cnf_build") * 1e3,
        "sat.cdcl_solve_s": round_sum("sat.cdcl_solve"),
        "sat.conflicts": counted("sat.conflicts"),
        "sat.propagations": counted("sat.propagations"),
        "sat.props_per_s": per_second("sat.propagations", "sat.cdcl_solve"),
        "sat.variables": counted("sat.variables"),
        "sat.clauses": counted("sat.clauses"),
        "dispatch.job_p50_ms": median(bench.samples["dispatch.job"]) * 1e3,
        "dispatch.inproc_job_p50_ms": median(bench.samples["dispatch.inproc_job"]) * 1e3,
        "dispatch.cached": counted("dispatch.cached"),
        "dispatch.retries": counted("dispatch.retries"),
        "dispatch.worker_deaths": counted("dispatch.worker_deaths"),
        "certify_sweep_ms": phase("certify_sweep") * 1e3,
        "cold_start_ms": phase("cold_start") * 1e3,
        "theorem2_s": phase("theorem2"),
        "sweep_jobs_per_s": phase("sweep_jobs_per_s"),
        "cache_pass_ms": phase("cache_pass") * 1e3,
        "trace.overhead_pct": (
            median(r.seconds for r in traced) / median(r.seconds for r in plain) - 1
        )
        * 100,
        "trace.spans": int(median(spans[r.index] for r in traced)),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    # Measure the defaults a user gets: no REPRO_* setting leaks in.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    workdir = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(keep_returns=("dispatch.batch",))
    bench = WORKLOADS[args.workload](random.Random(args.seed), tracer, workdir)
    rounds: list[Round] = []
    try:
        bench.setup()
        setup_s = process_age()
        start = time.perf_counter()
        while True:
            rnd = Round(len(rounds), traced=bool(args.trace) and len(rounds) % 2 == 1)
            if rnd.traced:
                tracer.tag = {"round": rnd.index}
                tracer.install()
                try:
                    with tracer.span("round"):
                        bench.run_round(rnd)
                finally:
                    tracer.uninstall()
            else:
                bench.run_round(rnd)
            rounds.append(rnd)
            # At least two rounds: one slow round cannot set a run's
            # median alone, and a traced run has one of each kind.
            if time.perf_counter() - start >= args.seconds and len(rounds) >= 2:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        values = layer_metrics(bench, rounds)
        units = PER_LAYER
    else:
        peak_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        values = {
            "setup_s": setup_s,
            "wall_s": median(r.seconds for r in rounds if not r.traced),
            "peak_rss_mb": peak_kb / 1024,
        }
        units = END_TO_END
    result = {
        "correct": not bench.problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "result": result,
                "problems": bench.problems,
                "rounds": [{"traced": r.traced, "seconds": r.seconds} for r in rounds],
                "spans": tracer.spans,
            },
            fh,
        )
    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
