"""An independent checker for covering envelopes.

It reads the envelope JSON a solve emits and re-derives everything it
checks from the paper's definitions.  It imports nothing from ``repro``,
so a fault in the library's own validation cannot hide a fault here.

A DRC covering of ``λK_n`` over the ring ``C_n`` is a list of cycles
("blocks").  Each block's vertices must run monotonically around the
ring (one direction, one full turn), which is what lets its edges be
routed on disjoint ring arcs.  Every chord ``{a, b}`` must be a cycle
edge at least ``λ`` times.
"""

from __future__ import annotations

from collections import Counter

OPTIMAL_STATUSES = ("proven_optimal", "closed_form")


def rho(n: int) -> int:
    """ρ(n), the fewest DRC cycles covering ``K_n`` (Theorems 1 and 2).

    ``n = 2p + 1`` gives ``p(p+1)/2``; ``n = 2p`` gives ``⌈(p²+1)/2⌉``
    (the formula also holds at ``n = 4``, the paper's example).
    """
    if n < 3:
        raise ValueError(f"rho needs n >= 3, got {n}")
    p = n // 2
    if n % 2:
        return p * (p + 1) // 2
    return (p * p + 2) // 2


def block_problem(block, n: int) -> str | None:
    """Why ``block`` is not a DRC cycle on ``C_n``, or ``None``."""
    if len(block) < 3:
        return f"block {block} has fewer than 3 vertices"
    if any(not isinstance(v, int) or not 0 <= v < n for v in block):
        return f"block {block} has a vertex outside 0..{n - 1}"
    if len(set(block)) != len(block):
        return f"block {block} repeats a vertex"
    k = len(block)
    forward = sum((block[(i + 1) % k] - block[i]) % n for i in range(k))
    backward = sum((block[i] - block[(i + 1) % k]) % n for i in range(k))
    if n not in (forward, backward):
        return f"block {block} does not run monotonically around the ring"
    return None


def envelope_problems(envelope: dict) -> list[str]:
    """Every way ``envelope`` fails to be a correct covering of its spec."""
    spec = envelope["spec"]
    covering = envelope["covering"]
    n, lam = spec["n"], spec["lam"]
    if spec.get("demand") is not None:
        return ["the checker handles uniform λK_n demand only"]
    if covering["n"] != n:
        return [f"covering order {covering['n']} != spec order {n}"]
    blocks = covering["blocks"]
    problems = [p for p in (block_problem(b, n) for b in blocks) if p]
    if problems:
        return problems

    edges: Counter = Counter()
    for block in blocks:
        for i, a in enumerate(block):
            b = block[(i + 1) % len(block)]
            edges[(min(a, b), max(a, b))] += 1
    short = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if edges[(a, b)] < lam
    ]
    if short:
        problems.append(f"{len(short)} chords covered fewer than λ={lam} times, e.g. {short[0]}")

    slots = sum(len(b) for b in blocks)
    if slots < lam * n * (n - 1) // 2:
        problems.append(f"{slots} slots < λ·n(n−1)/2 = {lam * n * (n - 1) // 2}")

    status = envelope["status"]
    if status not in OPTIMAL_STATUSES:
        problems.append(f"status {status!r} does not claim optimality")
    if (
        lam == 1
        and spec["objective"] == "min_blocks"
        and status in OPTIMAL_STATUSES
        and len(blocks) != rho(n)
    ):
        problems.append(f"{len(blocks)} blocks claimed optimal, but ρ({n}) = {rho(n)}")
    return problems
