"""Sequence oracle for the local-search improver and the greedy kernel.

Two runs of the same code always agree, so a determinism test cannot
tell a faster improver from a different one.  This file pins what the
improver actually produced: for every case the SHA-256 of the output
blocks' vertex tuples (in covering order) and the full
:class:`~repro.core.improve.ImproveStats`.  Any change to a move's
acceptance rule, a scan order or a candidate tie-break moves at least
one of them.  The greedy cases pin the index lists that
:meth:`SolverEngine.greedy_cover_indices` picks, and what it left
uncovered.

The padded cases start :func:`improve_covering` from a greedy covering
plus seeded random blocks, shuffled, under λ-fold and partial demands.
Greedy starts at n ≥ 16 make no merges; these starts do.  Seeds 0–39
are taken as they come; the ten later seeds are the first ones whose
run accepts a merge whose replacement must restore a chord that both
blocks of the pair cover, one copy above its demand.

The values were captured from the improver before its hot paths were
rewritten on chord bitmasks; they must never be edited to make a
change pass.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import astuple

import pytest

from repro.core.covering import Covering
from repro.core.engine import SolverEngine, enumerate_convex_blocks
from repro.core.improve import ImproveStats, improve_covering, improved_greedy_covering
from repro.traffic.instances import Instance, all_to_all, lambda_all_to_all
from repro.util.errors import SolverError

# The asymmetric C_8 demand of ``test_search_oracle.py``.
ASYM_DEMAND = {
    (0, 1): 1, (0, 3): 1, (0, 5): 2, (0, 6): 2, (0, 7): 2, (1, 2): 2,
    (1, 3): 1, (1, 5): 2, (1, 7): 2, (2, 3): 2, (2, 5): 2, (2, 6): 1,
    (2, 7): 1, (3, 5): 1, (4, 7): 2, (5, 6): 1, (5, 7): 2,
}

OBJECTIVES = ("min_blocks", "min_total_size")


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


def _record(cov: Covering, st: ImproveStats) -> tuple:
    return (_sha([list(blk.vertices) for blk in cov.blocks]), astuple(st))


def _padded(seed: int) -> tuple[Covering, Instance, dict]:
    """A shuffled, padded feasible start: greedy covering of a random
    (λ-fold or partial) demand plus random convex blocks, some of which
    cover unrequested chords."""
    rng = random.Random(seed)
    n = rng.randint(5, 11)
    lam = rng.randint(1, 3)
    if rng.random() < 0.5:
        inst = lambda_all_to_all(n, lam)
    else:
        demand = {
            (a, b): rng.randint(1, lam)
            for a in range(n)
            for b in range(a + 1, n)
            if rng.random() < 0.6
        }
        inst = Instance(n, demand or {(0, 1): 1})
    start = SolverEngine(n).greedy_cover(inst, pool="convex")
    pool = enumerate_convex_blocks(n)
    blocks = list(start.blocks) + [rng.choice(pool) for _ in range(rng.randint(2, 8))]
    rng.shuffle(blocks)
    options = dict(
        objective=rng.choice(OBJECTIVES),
        max_rounds=rng.choice((1, 2, 4)),
        pool=rng.choice(("auto", "tight")),
    )
    return Covering(n, tuple(blocks)), inst, options


def run_case(name: str):
    """Run one named case; return its record."""
    kind, *rest = name.split("-")
    st = ImproveStats()
    if kind == "kn":
        objective, n, rounds = rest
        cov = improved_greedy_covering(
            int(n), max_rounds=int(rounds), objective=objective, stats=st
        )
        return _record(cov, st)
    if kind == "lam":
        n, lam = int(rest[0]), int(rest[1])
        cov = improved_greedy_covering(n, lambda_all_to_all(n, lam), stats=st)
        return _record(cov, st)
    if kind == "sizes":
        sizes, n = rest
        try:
            cov = improved_greedy_covering(
                int(n), allowed_sizes=tuple(int(s) for s in sizes), stats=st
            )
        except SolverError:
            return ("SolverError",)
        return _record(cov, st)
    if kind == "asym":
        cov = improved_greedy_covering(
            8, Instance(8, ASYM_DEMAND), objective=rest[0], stats=st
        )
        return _record(cov, st)
    if kind == "tight":
        cov = improved_greedy_covering(int(rest[0]), pool="tight", stats=st)
        return _record(cov, st)
    if kind == "padded":
        start, inst, options = _padded(int(rest[0]))
        before = dict(start.coverage)
        cov = improve_covering(start, inst, stats=st, **options)
        assert start.coverage == before
        return _record(cov, st)
    if kind == "greedy":
        demand_kind, pool, n = rest
        n = int(n)
        if demand_kind == "kn":
            demand = dict(all_to_all(n).demand)
        elif demand_kind == "lam2":
            demand = dict(lambda_all_to_all(n, 2).demand)
        else:
            demand = dict(ASYM_DEMAND)
        chosen, leftover = SolverEngine(n).greedy_cover_indices(demand, pool=pool)
        return (_sha(chosen), leftover)
    raise AssertionError(name)


# name -> (sha256(block vertex tuples), ImproveStats as a tuple:
#          rounds, ejects, merges, replaces, repairs_tried,
#          repairs_accepted, start_blocks, end_blocks)
# greedy cases: name -> (sha256(chosen indices), requests left over)
CASES: dict[str, tuple] = {
    'kn-min_blocks-4-2': ('3cef7513334351f16e8431b077dbf358ba2094c4c05622eed074a968d72bbbce', (1, 0, 0, 1, 2, 0, 3, 3)),
    'kn-min_blocks-4-4': ('3cef7513334351f16e8431b077dbf358ba2094c4c05622eed074a968d72bbbce', (1, 0, 0, 1, 2, 0, 3, 3)),
    'kn-min_blocks-5-2': ('82f5d401869be876f50f8cf645408bd136247ad23dfd3ec640653ecab50cca18', (1, 0, 0, 0, 2, 0, 3, 3)),
    'kn-min_blocks-5-4': ('82f5d401869be876f50f8cf645408bd136247ad23dfd3ec640653ecab50cca18', (1, 0, 0, 0, 2, 0, 3, 3)),
    'kn-min_blocks-6-2': ('c7fac3693b2eabb95851df2007d6b0db82a8f4fbac1b7f0a9200c63056cdd7d9', (1, 0, 0, 2, 5, 0, 6, 6)),
    'kn-min_blocks-6-4': ('c7fac3693b2eabb95851df2007d6b0db82a8f4fbac1b7f0a9200c63056cdd7d9', (1, 0, 0, 2, 5, 0, 6, 6)),
    'kn-min_blocks-7-2': ('4bf9ed0fe54f6669d587bce8e572464d8c45afa86546f65236c04af1601b83b1', (1, 0, 0, 0, 5, 0, 6, 6)),
    'kn-min_blocks-7-4': ('4bf9ed0fe54f6669d587bce8e572464d8c45afa86546f65236c04af1601b83b1', (1, 0, 0, 0, 5, 0, 6, 6)),
    'kn-min_blocks-8-2': ('d741b01aa6ffb0b1ef4b8f7459b04ad0964f45dcc07eb30b78d215172d2ee481', (2, 0, 0, 4, 17, 1, 10, 10)),
    'kn-min_blocks-8-4': ('d741b01aa6ffb0b1ef4b8f7459b04ad0964f45dcc07eb30b78d215172d2ee481', (2, 0, 0, 4, 17, 1, 10, 10)),
    'kn-min_blocks-9-2': ('8afb7ec3770d41392b95ce925688020465d969dacce94f67443a90eb74557c58', (1, 0, 1, 0, 9, 0, 11, 10)),
    'kn-min_blocks-9-4': ('8afb7ec3770d41392b95ce925688020465d969dacce94f67443a90eb74557c58', (1, 0, 1, 0, 9, 0, 11, 10)),
    'kn-min_blocks-10-2': ('7a7c56df6e42900caeda9613f1333012f4b086b30eeb552b465bb9c8116ac348', (2, 0, 1, 2, 15, 1, 14, 14)),
    'kn-min_blocks-10-4': ('7a7c56df6e42900caeda9613f1333012f4b086b30eeb552b465bb9c8116ac348', (2, 0, 1, 2, 15, 1, 14, 14)),
    'kn-min_blocks-11-2': ('fa16c047f0fea2641671f1df53fe66f13d0a00deb1075854305379a40c2856af', (1, 0, 0, 0, 15, 0, 16, 16)),
    'kn-min_blocks-11-4': ('fa16c047f0fea2641671f1df53fe66f13d0a00deb1075854305379a40c2856af', (1, 0, 0, 0, 15, 0, 16, 16)),
    'kn-min_blocks-12-2': ('9ade28ca88a756b6ec3f503355aead46eda89d9f037d11953b0badd5bbcc1912', (2, 0, 0, 1, 38, 1, 20, 20)),
    'kn-min_blocks-12-4': ('9ade28ca88a756b6ec3f503355aead46eda89d9f037d11953b0badd5bbcc1912', (2, 0, 0, 1, 38, 1, 20, 20)),
    'kn-min_blocks-13-2': ('c8c68214b16f5a1902708a5d2a1f4d5f3292bec2420c3254e40498492a93e17e', (1, 0, 0, 2, 21, 0, 22, 22)),
    'kn-min_blocks-13-4': ('c8c68214b16f5a1902708a5d2a1f4d5f3292bec2420c3254e40498492a93e17e', (1, 0, 0, 2, 21, 0, 22, 22)),
    'kn-min_blocks-14-2': ('3fe7958b4407841c8b808ce6482639e89cd9631458074252bd5c5dc9521dbe65', (1, 0, 0, 0, 25, 0, 26, 26)),
    'kn-min_blocks-14-4': ('3fe7958b4407841c8b808ce6482639e89cd9631458074252bd5c5dc9521dbe65', (1, 0, 0, 0, 25, 0, 26, 26)),
    'kn-min_blocks-15-2': ('1d7a565d487e06a5717b596ed32a131234923225df8c111de335fec724f6527b', (1, 0, 0, 0, 28, 0, 29, 29)),
    'kn-min_blocks-15-4': ('1d7a565d487e06a5717b596ed32a131234923225df8c111de335fec724f6527b', (1, 0, 0, 0, 28, 0, 29, 29)),
    'kn-min_blocks-16-2': ('9fae9ab4a40915883a941753a67457b598ea79523c5b8420ffcc70fdbb77e1e1', (1, 0, 0, 0, 34, 0, 35, 35)),
    'kn-min_blocks-16-4': ('9fae9ab4a40915883a941753a67457b598ea79523c5b8420ffcc70fdbb77e1e1', (1, 0, 0, 0, 34, 0, 35, 35)),
    'kn-min_total_size-4-2': ('3cef7513334351f16e8431b077dbf358ba2094c4c05622eed074a968d72bbbce', (1, 0, 0, 1, 2, 0, 3, 3)),
    'kn-min_total_size-4-4': ('3cef7513334351f16e8431b077dbf358ba2094c4c05622eed074a968d72bbbce', (1, 0, 0, 1, 2, 0, 3, 3)),
    'kn-min_total_size-5-2': ('82f5d401869be876f50f8cf645408bd136247ad23dfd3ec640653ecab50cca18', (1, 0, 0, 0, 2, 0, 3, 3)),
    'kn-min_total_size-5-4': ('82f5d401869be876f50f8cf645408bd136247ad23dfd3ec640653ecab50cca18', (1, 0, 0, 0, 2, 0, 3, 3)),
    'kn-min_total_size-6-2': ('c7fac3693b2eabb95851df2007d6b0db82a8f4fbac1b7f0a9200c63056cdd7d9', (1, 0, 0, 2, 5, 0, 6, 6)),
    'kn-min_total_size-6-4': ('c7fac3693b2eabb95851df2007d6b0db82a8f4fbac1b7f0a9200c63056cdd7d9', (1, 0, 0, 2, 5, 0, 6, 6)),
    'kn-min_total_size-7-2': ('4bf9ed0fe54f6669d587bce8e572464d8c45afa86546f65236c04af1601b83b1', (1, 0, 0, 0, 5, 0, 6, 6)),
    'kn-min_total_size-7-4': ('4bf9ed0fe54f6669d587bce8e572464d8c45afa86546f65236c04af1601b83b1', (1, 0, 0, 0, 5, 0, 6, 6)),
    'kn-min_total_size-8-2': ('d741b01aa6ffb0b1ef4b8f7459b04ad0964f45dcc07eb30b78d215172d2ee481', (2, 0, 0, 4, 17, 1, 10, 10)),
    'kn-min_total_size-8-4': ('d741b01aa6ffb0b1ef4b8f7459b04ad0964f45dcc07eb30b78d215172d2ee481', (2, 0, 0, 4, 17, 1, 10, 10)),
    'kn-min_total_size-9-2': ('8afb7ec3770d41392b95ce925688020465d969dacce94f67443a90eb74557c58', (1, 0, 1, 0, 9, 0, 11, 10)),
    'kn-min_total_size-9-4': ('8afb7ec3770d41392b95ce925688020465d969dacce94f67443a90eb74557c58', (1, 0, 1, 0, 9, 0, 11, 10)),
    'kn-min_total_size-10-2': ('7a7c56df6e42900caeda9613f1333012f4b086b30eeb552b465bb9c8116ac348', (2, 0, 1, 2, 15, 1, 14, 14)),
    'kn-min_total_size-10-4': ('7a7c56df6e42900caeda9613f1333012f4b086b30eeb552b465bb9c8116ac348', (2, 0, 1, 2, 15, 1, 14, 14)),
    'kn-min_total_size-11-2': ('fa16c047f0fea2641671f1df53fe66f13d0a00deb1075854305379a40c2856af', (1, 0, 0, 0, 15, 0, 16, 16)),
    'kn-min_total_size-11-4': ('fa16c047f0fea2641671f1df53fe66f13d0a00deb1075854305379a40c2856af', (1, 0, 0, 0, 15, 0, 16, 16)),
    'kn-min_total_size-12-2': ('9ade28ca88a756b6ec3f503355aead46eda89d9f037d11953b0badd5bbcc1912', (2, 0, 0, 1, 38, 1, 20, 20)),
    'kn-min_total_size-12-4': ('9ade28ca88a756b6ec3f503355aead46eda89d9f037d11953b0badd5bbcc1912', (2, 0, 0, 1, 38, 1, 20, 20)),
    'kn-min_total_size-13-2': ('c8c68214b16f5a1902708a5d2a1f4d5f3292bec2420c3254e40498492a93e17e', (1, 0, 0, 2, 21, 0, 22, 22)),
    'kn-min_total_size-13-4': ('c8c68214b16f5a1902708a5d2a1f4d5f3292bec2420c3254e40498492a93e17e', (1, 0, 0, 2, 21, 0, 22, 22)),
    'kn-min_total_size-14-2': ('3fe7958b4407841c8b808ce6482639e89cd9631458074252bd5c5dc9521dbe65', (1, 0, 0, 0, 25, 0, 26, 26)),
    'kn-min_total_size-14-4': ('3fe7958b4407841c8b808ce6482639e89cd9631458074252bd5c5dc9521dbe65', (1, 0, 0, 0, 25, 0, 26, 26)),
    'kn-min_total_size-15-2': ('1d7a565d487e06a5717b596ed32a131234923225df8c111de335fec724f6527b', (1, 0, 0, 0, 28, 0, 29, 29)),
    'kn-min_total_size-15-4': ('1d7a565d487e06a5717b596ed32a131234923225df8c111de335fec724f6527b', (1, 0, 0, 0, 28, 0, 29, 29)),
    'kn-min_total_size-16-2': ('9fae9ab4a40915883a941753a67457b598ea79523c5b8420ffcc70fdbb77e1e1', (1, 0, 0, 0, 34, 0, 35, 35)),
    'kn-min_total_size-16-4': ('9fae9ab4a40915883a941753a67457b598ea79523c5b8420ffcc70fdbb77e1e1', (1, 0, 0, 0, 34, 0, 35, 35)),
    'lam-4-2': ('3478d0e91c8427063f0f1b1ee3d23fd0e1c59874f4151155d550fbb6c31df667', (1, 0, 2, 0, 3, 0, 6, 4)),
    'lam-4-3': ('099992675b64cf705ad9a56a464fbad0616af6663886b603b827ec5384f426b0', (1, 0, 2, 1, 6, 0, 9, 7)),
    'lam-5-2': ('a0737ddf2b686b8384dea6829676462a01dff940c1137d309121d0248c604a1e', (1, 0, 0, 0, 5, 0, 6, 6)),
    'lam-5-3': ('5327becffe2391733615e55e7ab572cdebeb8a8d0cfe26b8ed1c1aabf6512504', (1, 0, 0, 0, 8, 0, 9, 9)),
    'lam-6-2': ('27715eca5a4e081fe7e5af2c0c3b6cb3ceaa53ea6c8960800bc9169f0a47d23c', (1, 0, 3, 0, 8, 0, 12, 9)),
    'lam-6-3': ('07a0a921300439f4375d47d766c7a3c197b4d08f71bcdc06238af9b3f608546d', (2, 0, 3, 5, 26, 1, 18, 15)),
    'lam-7-2': ('4a2bc74478f978ed79a501c1746ee177441d8e887ec3411ad51e27d67563373c', (1, 0, 0, 0, 11, 0, 12, 12)),
    'lam-7-3': ('c85322b677f9d0f786d98268a5a4a023d0107024ff2c177e7bea38b7e2fb0b66', (1, 0, 0, 0, 17, 0, 18, 18)),
    'lam-8-2': ('045fa89c0418893bf8e249f9d7c98fd55f87abff78888802ac6dc6a669b6b3f5', (3, 1, 2, 1, 30, 2, 20, 17)),
    'lam-8-3': ('b020a4b323fbc812b6c43c8ca5b737e0177b4433713d8e58f8da1ea53fac3b14', (2, 0, 4, 1, 50, 1, 30, 26)),
    'lam-9-2': ('0f19bd41ad0bdeb9e2e2b416d8ddea7236011e77afb6454a408c5521e685cc92', (1, 0, 2, 0, 19, 0, 22, 20)),
    'lam-9-3': ('078f6e8f2e70e68e083736fc4a38ec0b0d041259242aeb264886e247f2fbd988', (1, 0, 3, 0, 29, 0, 33, 30)),
    'sizes-3-4': ('dc3de1094d045b869cf5580bb2dbdd47c14b4aba56e6e4f8dff3ae7715e24e86', (1, 0, 0, 0, 2, 0, 3, 3)),
    'sizes-3-5': ('504b47aafc30d8de5e791a8bafb936c07a30fa30bac56915cde60e7a5fefc603', (1, 0, 1, 0, 3, 0, 5, 4)),
    'sizes-3-6': ('a0d3856ec0c1773a438fdce3c97fca485bbb414fa879259c05dea83cc25661ca', (1, 0, 3, 0, 5, 0, 6, 6)),
    'sizes-3-7': ('4fc71a8c8cd968badccc12edbc381bd28fb5b389bb8017e142979bca56a8348f', (1, 1, 3, 0, 6, 0, 11, 7)),
    'sizes-3-8': ('8456bf69318f865f00736c13117079d97e4618acf86c1ccec89019b4178e91d6', (2, 1, 3, 0, 12, 1, 13, 11)),
    'sizes-3-9': ('1cae26318d2a529cf32729ca9deed35496f98eb126fffa40be75654a632e05a5', (1, 2, 4, 0, 13, 0, 20, 14)),
    'sizes-3-10': ('51a1636406fd26eb7395edfe396c91a03910f0470a5d69f8f8153739c23ad003', (3, 3, 9, 0, 32, 2, 23, 17)),
    'sizes-3-11': ('8f94b006c2ca6bc95e589b73fa79f5f89198ff976c37b45da7ef5eebc72b4989', (2, 2, 8, 0, 32, 1, 30, 20)),
    'sizes-3-12': ('fc36378e885bbd3cd4e1d77e60ce009594b715c75ad5b9c643966e87d14edb9a', (2, 1, 8, 0, 49, 1, 33, 26)),
    'sizes-4-4': ('SolverError',),
    'sizes-4-5': ('7ff513529d09ed64a074e33c8a118a0fe231628b364e20511bc74cfe58856aea', (1, 0, 0, 0, 4, 0, 5, 5)),
    'sizes-4-6': ('260d1eab81f6503d56146aaf924816604c5df9b15a8643eb313a104bb3fa0891', (1, 0, 1, 0, 5, 0, 7, 6)),
    'sizes-4-7': ('0c2b7dccfa8ad2812153f9016bee99d90fc383546ac32a5d2cdddfc23cea9bda', (1, 1, 1, 0, 6, 0, 8, 7)),
    'sizes-4-8': ('bc153afc354feb2b1588576f77f4622c74c32f5a07d76bf7af502e35df07c8b7', (1, 0, 0, 0, 8, 0, 9, 9)),
    'sizes-4-9': ('de90266966caf48b35eeed9268539953229d49cd25879ca2711aeb340cf4101a', (1, 0, 1, 0, 10, 0, 12, 11)),
    'sizes-4-10': ('b3f38f02cf3d56237407f9820235ff48e2cfceacfce081203d68494767d6eca1', (1, 0, 2, 0, 13, 0, 14, 14)),
    'sizes-4-11': ('07f9ee040c582591fb33466a582ee5b2158c43bcdc4ea61298b1338f9eb5d38b', (1, 0, 2, 0, 15, 0, 17, 16)),
    'sizes-4-12': ('79350d5a165d2b30721478314a95577528f1c79440883461ec1cb6eed8a85584', (1, 0, 0, 0, 19, 0, 20, 20)),
    'asym-min_blocks': ('4a139c9bf7ace815d8af9ece07d3e76739541b047af5601a851de1bd4b085171', (1, 0, 1, 1, 9, 0, 11, 10)),
    'asym-min_total_size': ('4a139c9bf7ace815d8af9ece07d3e76739541b047af5601a851de1bd4b085171', (1, 0, 1, 1, 9, 0, 11, 10)),
    'tight-20': ('d0e90f67f1993fcc6385d1faba12ade347c05a31c9c262d0a8f277ae801a3aab', (1, 0, 0, 0, 52, 0, 53, 53)),
    'tight-24': ('59129a5f09639518a1d05f8844573f7951261c597ff628e487a0b1f8012dc7c5', (1, 0, 0, 0, 73, 0, 74, 74)),
    'padded-0': ('429b1d20fb499f687c2229d5e94e1320d33a18a03c4754fe67828a2b092994ff', (1, 10, 2, 1, 10, 1, 21, 13)),
    'padded-1': ('6fb33b1fbc1bebb5cadc78b644bfef448cc83dc133724b0106ae1c0d7e3d1767', (1, 2, 0, 1, 5, 0, 8, 6)),
    'padded-2': ('5b0ecf1548fbb9d285fdf7da426c793fd16112d6b5cd403537b467a556fd84d1', (2, 4, 7, 4, 21, 2, 21, 15)),
    'padded-3': ('991c2af0c6c693fd37c3259ede9af011181768982a4b7866ab6be9c870d7622f', (3, 7, 1, 5, 13, 2, 18, 10)),
    'padded-4': ('036d4d9b52dcba66bb57387447cf11726f1cb62adb9650c516804041f2763dc5', (1, 5, 3, 0, 8, 0, 17, 9)),
    'padded-5': ('4047a7a8e09a3b8eeb8d4532096110540cd1fab3597f4522aaebcbd64247a743', (1, 3, 0, 0, 9, 0, 13, 10)),
    'padded-6': ('bffc097507f69cf0e661f590695fd37d7695c9005bc6db8dd1a47e18a8601260', (1, 7, 3, 3, 20, 0, 28, 21)),
    'padded-7': ('795d2b9d24138f9e68035c9b4d035b944ebc8d379ec0b8e76daba451fb4dfaef', (1, 2, 1, 0, 5, 0, 9, 6)),
    'padded-8': ('1dff63d60cb3984dc03763cb89bfebd40c1f435eb8725db2fbe4933cc6a4008b', (1, 3, 0, 0, 4, 0, 8, 5)),
    'padded-9': ('357f72d2c624981a883002d1a2cce223cd8b86dac8e79e8a90360cccf0577230', (1, 3, 5, 2, 2, 1, 33, 26)),
    'padded-10': ('56dc538480bdc704341698c331e6c033acf2328e74e64924fcfcee59b4e219af', (2, 7, 1, 0, 10, 1, 17, 10)),
    'padded-11': ('6dc4521beb17da277eff40b667441e2a5916761c074e68188dd5abef5d5a7d72', (1, 5, 3, 1, 6, 1, 19, 12)),
    'padded-12': ('e00a1f848ac6ca340b5d3a804a60cd45d2b18ea671efdbcd1c403b24b1dcde15', (1, 6, 0, 0, 5, 1, 14, 8)),
    'padded-13': ('0a258b82fad9c84dea7251f4786a9c740977c6f7394b7e950f8d776e6ca2ec8e', (1, 7, 1, 0, 4, 0, 12, 5)),
    'padded-14': ('5224b9ec47daeed5546a95bb10bd290f1a6459bcb44144ac7641a7172311ea23', (1, 5, 0, 1, 4, 0, 10, 5)),
    'padded-15': ('bd8e7738e1018447391bd79e28f47a534f7d5d9b418f058835a711667f9ac7d9', (1, 5, 0, 1, 3, 0, 9, 4)),
    'padded-16': ('63157f56277ade0f22a7b43f4a25e7aa8811074241391ad07bf82a7b6de97397', (1, 6, 1, 0, 11, 0, 19, 12)),
    'padded-17': ('0ca47a3eff693cd1a8c8fa43ffdf4880e7c00bd2a2bdf2012eced7ea5cfc6245', (1, 5, 3, 1, 10, 0, 19, 11)),
    'padded-18': ('bd802a1958274f682d1bc97eafee449e6f3ba21111b0c7b3353b80b5565d8f41', (1, 5, 1, 0, 2, 0, 8, 3)),
    'padded-19': ('ab6a4c25ff12b24ae9191c99f94331585a49e690c2d1dc5a5c5d09d729f54fc1', (1, 2, 4, 0, 8, 0, 11, 9)),
    'padded-20': ('9cc225e3d4a9a032ba181a741b8db62578b985b1a344fc44a30059c3c9c9336e', (2, 2, 1, 3, 20, 1, 21, 18)),
    'padded-21': ('6d5b07ba51c8f36d8cc83c5a24cfa9b45c81d87c96c6fe2f0a8e33e0ec1bb680', (1, 4, 0, 0, 3, 0, 8, 4)),
    'padded-22': ('663a11c16a05511de76dd8a36ea49a1b32639d982d7ac86c3e7b01ac9e907ca9', (2, 5, 0, 2, 5, 2, 11, 6)),
    'padded-23': ('739c8daafc51c22b5e8cac9f3a864ea0b2b2de6d346db51445308bd9e2476909', (1, 3, 2, 0, 1, 1, 24, 19)),
    'padded-24': ('b04a228ead3309df9902acd5804c753b17178d3a27b295dba5bd77ee67b2fa98', (1, 8, 3, 0, 10, 0, 20, 11)),
    'padded-25': ('672d08cd6a752143fd4fa15ca7ea7081c0f4649a9bf9efd356b8544b8705e5fe', (2, 8, 1, 1, 13, 1, 18, 9)),
    'padded-26': ('f446d872dba934e655530330ee35ce349c5a608483794c50f93f545b428c1d0b', (1, 6, 0, 1, 7, 0, 14, 8)),
    'padded-27': ('f467c33028af6a43f3ba27c7374bc18567202fb45b01efdcd89c85eb4206fa78', (1, 2, 6, 3, 14, 0, 17, 15)),
    'padded-28': ('0f891868f48bd3cf79de16d903430f6f942b312e4bb41ef0cc237624e816b4a9', (1, 6, 0, 0, 8, 0, 15, 9)),
    'padded-29': ('355d88f15f9bc63e8a7d32b11d8e15b18bda4e566fc6b6773afc00adde1306cb', (2, 8, 1, 0, 10, 2, 19, 11)),
    'padded-30': ('c980247238dcfa5631c921beb851d2266de0576538b58822b8f01a1379f92d9f', (1, 4, 0, 0, 9, 0, 14, 10)),
    'padded-31': ('9d6c68824d5b1b54c610dc954f37de360129dff4b84f317915019933e2cb9941', (1, 5, 0, 0, 5, 0, 11, 6)),
    'padded-32': ('887ee17b450cbac68f892c564d51d7327049844015fe8e92ea0e14713fadfc8d', (1, 7, 0, 0, 2, 0, 10, 3)),
    'padded-33': ('5b110437bf8e89900fe9cf7b872fa6e151ddca077eb999aed3124ea79761200b', (1, 6, 6, 0, 7, 0, 14, 8)),
    'padded-34': ('57a1322a31caa7a4b790ece09f15825f2b44f00d38771849e695b53944f97942', (1, 5, 3, 0, 12, 0, 18, 13)),
    'padded-35': ('a11c3c802eba18504cf88510dd6305cb753487626d3493ebfe9685ea62c4af6b', (1, 2, 8, 1, 11, 0, 14, 12)),
    'padded-36': ('a9c9d2ebdb7f721e89be3962db036d4fdcf4dee80232157a02830f7237c5d742', (1, 5, 0, 0, 3, 0, 9, 4)),
    'padded-37': ('8bf53b031ad1496ba8a0bd5c8a8d0fc396125ad73cfbac322e36c712b92aabe4', (2, 6, 5, 2, 25, 2, 51, 40)),
    'padded-38': ('cf8943f05c4d6dcbf8b9934c25f8423e82eb43c1d1a0fcce2922c16b3c59deb6', (2, 7, 5, 3, 3, 2, 37, 27)),
    'padded-39': ('5e99a8dcda48ac99d87b00a4e3d9a2d4b4f1e1dcc5a27b32671220a28741ae81', (1, 3, 3, 0, 8, 0, 15, 9)),
    'padded-99': ('df3d7dc6f6fb90257e5251d798972ccb31bcfee429a57cfdfecd90b2dfb642d3', (2, 4, 4, 0, 11, 2, 23, 17)),
    'padded-103': ('8f827bae9a745d5cae173b918b26e963f5170902267ed928b55a82cdb58bb730', (1, 7, 6, 3, 12, 0, 20, 13)),
    'padded-126': ('f5ff5d306cc70a07fe407132f0f910f612d9525e06ca968efd1bd5ff8a07ab2a', (2, 5, 6, 2, 8, 1, 14, 8)),
    'padded-133': ('e8f9bf2f5361b686598f3b08d9286799c9ae92f41adef75105637b6862e99c74', (1, 7, 8, 0, 16, 1, 28, 16)),
    'padded-142': ('2c8ca4f9352c13fad07e9c9e4afb8bc0b74b739bd317b35e08db251c624b6c1e', (2, 3, 4, 4, 22, 1, 15, 12)),
    'padded-143': ('7c1a0712b915931c290a427855d0ef9d441818b2fc596ca083f728945d21ab09', (2, 3, 2, 1, 5, 1, 9, 5)),
    'padded-173': ('ce34c1e3dce025fe76d48c807974e42dd0a2e7a09dcdbb9450fd386968d013e2', (1, 4, 1, 0, 4, 0, 10, 5)),
    'padded-180': ('06a08e7e7a2721e6e7a7b1883b6fa0d22d166e6654479b287d0cdc4f610a3a26', (1, 5, 1, 0, 2, 0, 9, 3)),
    'padded-185': ('fbdf23a0463394ac4db2c947e39388c7ce432c391ea007a85deeaba032fd4c4d', (1, 4, 1, 0, 15, 0, 21, 16)),
    'padded-188': ('a3e77bbcfec8a1b05033c35cd16b4db2b1121bfcc069133940db2a3db56a3093', (2, 10, 12, 2, 31, 1, 30, 21)),
    'greedy-kn-convex-4': ('8199db4dd994d13093a00c633282828de02b15f3d0a592226dcef852795c201d', 0),
    'greedy-kn-convex-5': ('87928f68cc8fcacdf13865ed2b8dbb88d2e649a53b89fd4103b19b3e9fe4f5a9', 0),
    'greedy-kn-convex-6': ('29b31d42337173767437f8bb4ce7c375d57a21e5bd7e2a5c8e857f5e469afd63', 0),
    'greedy-kn-convex-7': ('6694bafe989c8d5c981b9270fd632e2c3f0f95887b0402f75c5ea02bc3e16cc3', 0),
    'greedy-kn-convex-8': ('e968263e109f8e413e73bbfba6a771d5f4d897165b6c2bacb404c5b6b676b704', 0),
    'greedy-kn-convex-9': ('a82bbd781f44d76e0259df00af49e50c4ae0dfda6ceac0f75d72a9c59771e6a9', 0),
    'greedy-kn-convex-10': ('63cf3a48eff8dbab20b7c0e909ceec51dbb2cdb74ff2ccdc51f7c496674c2173', 0),
    'greedy-kn-convex-11': ('4336cb4bfe6136630aca32608d61137039d291b34e563ebfc1515cd6b8c7560d', 0),
    'greedy-kn-convex-12': ('52f64c637d75573795a83261408deb89c8b42afad8a203f03855f5a1f394753d', 0),
    'greedy-kn-convex-13': ('e6b8fffff41bab1576559e868fc5e1de3f3641865316948b2bac2c78f970a681', 0),
    'greedy-kn-convex-14': ('de04b5f53d00e709e4177e60f226db25560667303820ebd5e44556d30b47151b', 0),
    'greedy-kn-convex-15': ('b6e4a0c3def0fdb662e5241a77fec4b43417cca238adf8b399075d946d1003c2', 0),
    'greedy-kn-convex-16': ('5cfcacffd4fad04d8494b56c0d80ccc640fb476f820b1876ecf508f3ef6f7b8d', 0),
    'greedy-lam2-convex-4': ('68c3303907ec9471b32d8ecc5c09a5a66b634670ebdac0c721d5cc2937605fc1', 0),
    'greedy-lam2-convex-5': ('2040277ee01ad571a790016222a7c130e44845a88f2eadc10415165c6fe7a52e', 0),
    'greedy-lam2-convex-6': ('241c91b538e16e15edd310914ace3f2b303ef457c97ea5f3138afa117974d874', 0),
    'greedy-lam2-convex-7': ('2ee8b675fad45773f601d1436399d9ad6c31d818954a39a89c18574011216579', 0),
    'greedy-lam2-convex-8': ('62adad0197ce375b15eb2d12e1934c5f1a3db4944de8cc64137bfd6c95d859fb', 0),
    'greedy-lam2-convex-9': ('fb6453e0e8fd95ddc6bc123d7892aeffa471bf1e82792c0a49f1ddb517868daa', 0),
    'greedy-lam2-convex-10': ('b1eddfe70f2465765b7128c9375c39d89771a6dd2fbb966cf3d0f591a5bcda3f', 0),
    'greedy-asym-convex-8': ('6c2f3bf46b1164a1b0ff500dd1e8251ea30cf0986d36231659657565da6ddcf5', 0),
    'greedy-kn-tight-4': ('8199db4dd994d13093a00c633282828de02b15f3d0a592226dcef852795c201d', 0),
    'greedy-kn-tight-5': ('bf25e2115815f64172e853377d60b26a28e6fcec7c5bcc8c55a4fb7f469c3b07', 0),
    'greedy-kn-tight-6': ('a48dd7faef37de0b9fd9224f86b0f8b6946a9e240dba104d7f3f6a9f45503036', 0),
    'greedy-kn-tight-7': ('81de1b802ae809de4200c368ffddc04f127575321d9d2e8682b606eb1d378352', 0),
    'greedy-kn-tight-8': ('4a42c57d71faefac0c7b331398c5c62f1f612a723c2383a837e2cd21cccdb632', 0),
    'greedy-kn-tight-9': ('039eef2fa5db4d05cacdef4a1301298bae56d0e0b8c44026e7a7f3f811edcfd8', 0),
    'greedy-kn-tight-10': ('c4ab854bd8fa97ac45a11ced0373d877ecb4bba4c6fb5025c123ba09b4b9d385', 0),
    'greedy-kn-tight-11': ('67c9a910552cf6ee99e3f91e8921a40484c3f20935847fe3743f8a2d4dc957e8', 0),
    'greedy-kn-tight-12': ('c628e2e87015f3cf6f9df4d765e913170971c7166fe048b68b0e551c04143dae', 0),
    'greedy-kn-tight-13': ('334d8581a75b1626a9ee1e40d71a5a1fe20a54be8e1be831e626026629d690ed', 0),
    'greedy-kn-tight-14': ('bf81ee185d8dd1e4202c99c89dd5b751657d2a3510a94462948a9ce8ba802638', 0),
    'greedy-kn-tight-15': ('33d43825ddcab4510dfd32d96fff08e738b4bd7a625d5f8419454ec69cf3f780', 0),
    'greedy-kn-tight-16': ('067f5148a9d9d940d59de18730bf1db108a9edc8a03d48c78ef06a6be6443e21', 0),
    'greedy-lam2-tight-4': ('68c3303907ec9471b32d8ecc5c09a5a66b634670ebdac0c721d5cc2937605fc1', 0),
    'greedy-lam2-tight-5': ('1f73d324496abab38335ea245faa0a1d2e550a7b86d99ab5bc552b4e852e6df1', 0),
    'greedy-lam2-tight-6': ('960ddfc7398cf9daa17587219179c144900c2f3f574749ffe4e60797db438272', 0),
    'greedy-lam2-tight-7': ('aea851cad9f9426dc2c2c57d01e0957f574d745f656e5537bd65da50ddc97af3', 0),
    'greedy-lam2-tight-8': ('6db9caea61d643babb4db00ed3ba9662ec7d87e1f31b62d073c1816e31f03296', 0),
    'greedy-lam2-tight-9': ('d2db2c8e6a0c0a11f36de71664ed97281ba79de6b667b3434c9488ee8e9165aa', 0),
    'greedy-lam2-tight-10': ('bb7638ecb80a61c9059bf5751009e25aa4714443e5a9def380d69a9ebce815af', 0),
    'greedy-asym-tight-8': ('569aaceda8de15b08daef91c8c82ea19188fb56e373dfb6550204b6266bd7733', 0),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_improver_sequence_is_pinned(name):
    assert run_case(name) == CASES[name]
