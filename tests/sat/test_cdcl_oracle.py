"""Sequence oracle for the bundled CDCL.

Two runs of the same code always agree, so a determinism test cannot
tell a faster solver from a different one.  This file pins what the
solver actually did: for every case the answer, the counters
``(decisions, conflicts, propagations, learned, restarts)``, the
assumption core and the SHA-256 of the model.  Any change to the
watch order, the branch rule, conflict analysis or restarts moves at
least one of them.  The SAT-backend cases pin the SHA-256 of the
serialized envelope (whose ``sat_certificate`` carries the per-``k``
counters) and of one node-limit checkpoint.

The values were captured from the solver before its hot paths were
rewritten; they must never be edited to make a change pass.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import CoverSpec, solve
from repro.sat.cdcl import Cdcl
from repro.util.errors import SolverError


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _random_3sat(seed: int, num_vars: int, num_clauses: int) -> list[list[int]]:
    rng = random.Random(seed)
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, num_vars + 1), 3)]
        for _ in range(num_clauses)
    ]


def _pigeonhole(holes: int) -> tuple[int, list[list[int]]]:
    pigeons = holes + 1

    def var(p: int, h: int) -> int:
        return p * holes + h + 1

    clauses = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
    for h in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                clauses.append([-var(a, h), -var(b, h)])
    return pigeons * holes, clauses


def _loaded(num_vars: int, clauses) -> Cdcl:
    s = Cdcl()
    s.ensure_vars(num_vars)
    for c in clauses:
        s.add_clause(c)
    return s


def _record(s: Cdcl, result: bool) -> tuple:
    model = ""
    if result:
        model = _sha("".join("1" if s.model[v] else "0" for v in range(1, s.num_vars + 1)))
    return (
        result,
        s.decisions,
        s.conflicts,
        s.propagations,
        s.learned,
        s.restarts,
        tuple(s.core) if not result else (),
        model,
    )


def _random_case(seed: int, num_vars: int, ratio: float):
    return _loaded(num_vars, _random_3sat(seed, num_vars, int(num_vars * ratio)))


def _assumption_case(seed: int, num_vars: int, count: int):
    s = _random_case(seed, num_vars, 3.9)
    rng = random.Random(1000 + seed)
    picked = rng.sample(range(1, num_vars + 1), count)
    return s, [v if rng.random() < 0.5 else -v for v in picked]


def run_case(name: str) -> list[tuple]:
    """Run one named case; return the record of every ``solve`` call."""
    kind, *rest = name.split("-")
    if kind == "r3":
        seed, num_vars = int(rest[0]), int(rest[1])
        s = _random_case(seed, num_vars, 4.3)
        return [_record(s, s.solve())]
    if kind == "php":
        s = _loaded(*_pigeonhole(int(rest[0])))
        return [_record(s, s.solve())]
    if kind == "assume":
        s, assumptions = _assumption_case(int(rest[0]), int(rest[1]), int(rest[2]))
        return [_record(s, s.solve(assumptions))]
    if kind == "reuse":
        # One solver, two calls: refuted under assumptions, then
        # re-solved with the learnt clauses and activities it kept.
        s, assumptions = _assumption_case(int(rest[0]), int(rest[1]), int(rest[2]))
        first = _record(s, s.solve(assumptions))
        return [first, _record(s, s.solve())]
    if kind == "rescale":
        # Start the activity increment just below the rescale threshold
        # so a small formula crosses the VSIDS rescale (and the heap
        # rebuild it triggers) within a few dozen conflicts.
        s = _random_case(int(rest[0]), int(rest[1]), 4.3)
        s._var_inc = 1e98
        return [_record(s, s.solve())]
    raise AssertionError(name)


# name -> [(result, decisions, conflicts, propagations, learned,
#           restarts, core, sha256(model bits))] per solve call
CASES: dict[str, list[tuple]] = {
    "assume-0-100-5": [
        (True, 146, 93, 2304, 93, 2, (), "5cc08f59ba60de3122a460037bae0165dceea28a264c682419daa0babcba1b0d"),
    ],
    "assume-0-80-10": [
        (False, 3, 5, 132, 5, 0, (-51, -46, -22, 13, 60), ""),
    ],
    "assume-1-80-10": [
        (False, 16, 14, 261, 14, 0, (-79, -53, -49, -48, -21, -8, 26, 52), ""),
    ],
    "assume-2-80-10": [
        (False, 4, 5, 88, 5, 0, (-75, -67, -62, -36, -19, 12, 17, 29, 54, 77), ""),
    ],
    "assume-3-80-10": [
        (False, 0, 1, 38, 1, 0, (-70, -60, -59, -58, -47, -29), ""),
    ],
    "assume-7-100-3": [
        (False, 124, 104, 2721, 104, 2, (-77, -23, -5), ""),
    ],
    "assume-7-100-5": [
        (False, 144, 118, 2903, 118, 2, (-23, -5, 40, 77, 95), ""),
    ],
    "php-4": [
        (False, 38, 28, 297, 27, 0, (), ""),
    ],
    "php-5": [
        (False, 217, 169, 1919, 168, 4, (), ""),
    ],
    "r3-0-100": [
        (False, 476, 381, 8762, 380, 6, (), ""),
    ],
    "r3-0-50": [
        (True, 41, 26, 384, 26, 0, (), "6c8eb9f8e49a6fad93628ffcfcc79922aef7f96af8ea1388bfb1fd0d1149c8d3"),
    ],
    "r3-0-80": [
        (False, 141, 123, 2574, 122, 2, (), ""),
    ],
    "r3-1-100": [
        (False, 640, 500, 12585, 499, 9, (), ""),
    ],
    "r3-1-50": [
        (False, 69, 59, 835, 58, 1, (), ""),
    ],
    "r3-1-80": [
        (False, 94, 70, 1420, 69, 2, (), ""),
    ],
    "r3-2-100": [
        (False, 629, 502, 11438, 501, 9, (), ""),
    ],
    "r3-2-50": [
        (True, 56, 37, 644, 37, 1, (), "356606a504a5b996f5415c9592413517575ec567f6aa13aa5aeb2e81f3be69fe"),
    ],
    "r3-2-80": [
        (False, 313, 259, 5401, 258, 6, (), ""),
    ],
    "r3-3-100": [
        (True, 161, 99, 2231, 99, 2, (), "71c1486128b769c03e192b55dc908460a77371f7463d2a5ff541a76e1bda9a5d"),
    ],
    "r3-3-50": [
        (True, 28, 20, 350, 20, 0, (), "95398632cdfce082d055e889dbfe7db4d1408eafa16d8d89ce5f48763d9ba2bb"),
    ],
    "r3-3-80": [
        (False, 327, 255, 5318, 254, 5, (), ""),
    ],
    "rescale-0-100": [
        (False, 476, 381, 8762, 380, 6, (), ""),
    ],
    "rescale-1-100": [
        (False, 640, 500, 12585, 499, 9, (), ""),
    ],
    "rescale-3-100": [
        (True, 161, 99, 2231, 99, 2, (), "71c1486128b769c03e192b55dc908460a77371f7463d2a5ff541a76e1bda9a5d"),
    ],
    "reuse-0-80-10": [
        (False, 3, 5, 132, 5, 0, (-51, -46, -22, 13, 60), ""),
        (True, 195, 150, 3188, 150, 3, (), "94187f9e29750b31977888ae99a6e155c81e96fd2ea56af6ae978849d524fa09"),
    ],
    "reuse-7-100-5": [
        (False, 144, 118, 2903, 118, 2, (-23, -5, 40, 77, 95), ""),
        (True, 180, 132, 3311, 132, 2, (), "2aaf2db670f4a06b689f70260fb5597f4bfe07c7ba467552ce2dc821cb5e5a67"),
    ],
}

# n -> sha256(Result.to_json()) of the no-hint sat solve
ENVELOPES: dict[int, str] = {
    4: "f408949a79123d38a44222be70c0641149538078e9d89f9a2b00d3a2f78857fd",
    5: "970855090dafd5596c8cf3ee6c7ceea51d449d1aafb9a8eb9034647b0de517ac",
    6: "345dd4935a2f17f008cdd5dde99415d3186609e71d1ad94ed300c106997ca05e",
    7: "a34bb32e3eaf9b5664df32a7b0ce8eeedf92e454540b9eed56e87751a886ef84",
    8: "137a36e36302ae2e25269f3163d494101a8526b2a018f48d2bec93b1e4397cab",
    9: "0d214151ebf82e01a6485a4b4837805bd8b343b99722f4934df64a15953acba6",
    11: "7f497fd070461e706d44086211f42de9894b6eb789fd8703a82720277cbc71f5",
    13: "a367e5a60aeaa97925f55304a8921d3eaaea444c1f7884b7dbfbdcfe07ce83e2",
}

# sha256(SearchCheckpoint.to_json()) of the n = 6 sat walk stopped at
# node_limit = 10 conflicts (after its first, satisfiable k step)
NODE_LIMIT_CHECKPOINT = "6490052e314c15d628a1a4a159b7b4aa740da699b68de0790d0807c8179b32af"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cdcl_sequence_is_pinned(name):
    assert run_case(name) == CASES[name]


@pytest.mark.parametrize("n", sorted(ENVELOPES))
def test_sat_envelope_is_byte_identical(n):
    result = solve(CoverSpec.for_ring(n, backend="sat", use_hints=False))
    assert _sha(result.to_json()) == ENVELOPES[n]


def test_sat_node_limit_checkpoint_is_byte_identical():
    spec = CoverSpec.for_ring(6, backend="sat", use_hints=False, node_limit=10)
    with pytest.raises(SolverError) as info:
        solve(spec)
    assert _sha(info.value.checkpoint.to_json()) == NODE_LIMIT_CHECKPOINT
