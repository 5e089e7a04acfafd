"""Byte-identity oracle for the exact branch-and-bound search.

Every case is a no-hint ``exact`` solve through :func:`repro.api.solve`
(certification mode: the search proves optimality from its own
incumbent).  Each pins the explored node count and the SHA-256 of the
serialized envelope, so any change to the search — candidate order,
pruning, memo keys, incumbent handling — shows up here as a changed
count or digest.  The node-limit cases pin the SHA-256 of the
checkpoint raised at ``node_limit=2500``: frames, cursors, memo
contents and memo order included.

The values were captured from the search before it was unified into a
single driver; they must never be edited to make a change pass.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import CoverSpec, solve
from repro.util.errors import SolverError

# An asymmetric demand on C_8 (no ring rotation or reflection preserves
# it), so neither root symmetry breaking nor the dihedral memo applies.
ASYM_DEMAND = (
    (0, 1, 1), (0, 3, 1), (0, 5, 2), (0, 6, 2), (0, 7, 2), (1, 2, 2),
    (1, 3, 1), (1, 5, 2), (1, 7, 2), (2, 3, 2), (2, 5, 2), (2, 6, 1),
    (2, 7, 1), (3, 5, 1), (4, 7, 2), (5, 6, 1), (5, 7, 2),
)


def _spec(name: str, node_limit: int | None = None) -> CoverSpec:
    kind, *rest = name.split("-")
    common = dict(backend="exact", use_hints=False, node_limit=node_limit)
    if kind == "kn":
        objective, n = rest
        return CoverSpec.for_ring(int(n), objective=objective, **common)
    if kind == "lam":
        objective, n, lam = rest
        return CoverSpec.for_ring(int(n), lam=int(lam), objective=objective, **common)
    if kind == "scarcest":
        return CoverSpec.for_ring(int(rest[0]), branching="scarcest", **common)
    if kind == "nomemo":
        return CoverSpec.for_ring(int(rest[0]), use_memo=False, **common)
    if kind == "sizes":
        sizes, n = rest
        return CoverSpec.for_ring(
            int(n), allowed_sizes=tuple(int(s) for s in sizes), **common
        )
    if kind == "asym":
        return CoverSpec(n=8, demand=ASYM_DEMAND, objective=rest[0], **common)
    raise AssertionError(name)


# name -> (stats.nodes, sha256(Result.to_json()))
SOLVES = {
    "kn-min_blocks-4": (8, "148d2870da1bf241cc762331160f0f28363c6905cc841fd954d25a3a0038e134"),
    "kn-min_blocks-5": (1, "0fe92415519f50e2ff83b1a5876941a21890fb7712111ce896811575a6f47995"),
    "kn-min_blocks-6": (32, "e6f556a08efc2b42fd668fefa69c1923862867a292c9a0e4c8eb6cdd9a787e89"),
    "kn-min_blocks-7": (1, "2081059a0f2f004f7beec8586d7b21f0fd5ad75fd387b4d0fe2c975526c0190e"),
    "kn-min_blocks-8": (3493, "5d24382ef9fa2078683ad39f64cca6c705c8036ee986dbd1f711b93b5632b94e"),
    "kn-min_blocks-9": (1, "9ecf5c97d29e90083fe7a55aebc54d25258b18b1cbe524a169c1ed2b54a15843"),
    "kn-min_blocks-10": (111453, "1bd876ae724ba889f9cc248abac089c47f2a26b1d6376e23b7532056368d5178"),
    "kn-min_blocks-11": (461, "c00b25c8d76dbed340389e29f204cb3589a5c6882aca6340c38308bb5438255d"),
    "kn-min_total_size-4": (8, "3c9b0848f05ac1a1d8320f06545274403d09506f896cdb69642c5e303709aeab"),
    "kn-min_total_size-5": (1, "6236926d0d2642be54bd5dbc56519d4461b92a2ac58ba255095dc7091d86813c"),
    "kn-min_total_size-6": (1, "84cf02c94bc0bd2afd9bc05394f738ef616e112b5a4c678d19b8348af87b7261"),
    "kn-min_total_size-7": (1, "ecd7d466dd0b5702fa13dcff181a961fab9ea33f227b983a99d576b7a8a986f2"),
    "kn-min_total_size-8": (1, "b9ed9b9159617a3b26c27dc82410172362794d93d33c039629e527270261c505"),
    "kn-min_total_size-9": (1, "63dd05800a3954a15050223d31e831e05fb9fc9bb4436d24e1e7db3cb1e09326"),
    "kn-min_total_size-10": (1, "f39314d267ea5de530fb649f915773dbf01006c882a986c0da30d6e034dc0c88"),
    "kn-min_total_size-11": (461, "08ea32529704fcb884824b95c1fb334d7f9fc39d19101ccd7343c339347916ea"),
    "scarcest-8": (6304, "3669f4ae95f739c03a5c6c015af60f9b024da84a868fd55852bdf84c4f919db9"),
    "nomemo-8": (5586, "446ef7757669b1064b609e628bb2d2063626fc10a93aab7fd9dda866cc98a6ad"),
    "sizes-3-8": (22738, "1d48ba5bd0b21611269654b13b12f92ecb3b5b4a75920627d1596debf0ac9d78"),
    "sizes-4-9": (7462, "fe40f9d0a74b38324827e5f02a1c4463253bbbfb8a56f4b9c52f3b4370ffa985"),
    "lam-min_blocks-4-2": (22, "31bababbe3b2b08cacc81beac7de6993c681bc6a79d4cbcd2de95f23a7f38ad8"),
    "lam-min_blocks-4-3": (87, "d04e3518e944373aad7fb7352648cd0049b138db7807e69718f23932e298a6d0"),
    "lam-min_blocks-6-2": (366, "cbb8ff790257a3c0a37e25c2ecd18aefa0acbfe6d1580577f27aa5abc79b5c72"),
    "lam-min_blocks-6-3": (11982, "f28b68b16e59df7b2997e3648c809c72782a892db07b5932fe80fc6438729601"),
    "lam-min_blocks-8-2": (34309, "7af6ce4b7935916ae0f69bf402532d0c351e7b26e82de8d3eb660cce97fe5a84"),
    "lam-min_total_size-4-2": (25, "766a5e818aa6e48bf7db49424e58cccc3ef133664200df7c3b26a3377d635fa1"),
    "lam-min_total_size-4-3": (88, "50aa6088ecf80e86225f30fcac2760233bd75cf8e42fb00b3986310e3d36d971"),
    "lam-min_total_size-6-2": (661, "d96b5f499645f09c3d121f485dc929efb90b2f3516631bdf1da3400cf44e4a85"),
    "lam-min_total_size-6-3": (1324, "cd9bf25d333057565d54f5222c78f70f1e68a06738ef743af1a92d31fc8af0d9"),
    "lam-min_total_size-8-2": (2390, "6cf17dbf1c02c7cbaddf1488a64482b7110fc97474ee16bf07c275b7135b1c2b"),
    "lam-min_total_size-8-3": (10458, "81e9a22d99b5586a2334b70b7cd6d007476485eb9ebe1540b084ad613b60d82f"),
    "asym-min_blocks": (1534, "4215a826b1f2c0a907321d18f4f2bb8d4b559612c39636a847e2f099c0004b15"),
    "asym-min_total_size": (13624, "22afb7b626bc1c91ef78cc19f1b1605fa1c84a4fd12612b2a9d3ff097e7041e3"),
}

# name -> (checkpoint.nodes, sha256(SearchCheckpoint.to_json())) of the
# SolverError raised at node_limit=2500.
NODE_LIMIT_CHECKPOINTS = {
    "kn-min_blocks-8": (2501, "98c9621990861c38e587d55957024de224382701f5ccbcd8ed72ed3116c66664"),
    "lam-min_blocks-8-2": (2501, "c4206f822810ccd57908bdf0a89a1639c132417675c5bd9c6a55cebffc0df548"),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVES))
def test_solve_is_byte_identical(name):
    result = solve(_spec(name))
    assert (result.stats.nodes, _sha(result.to_json())) == SOLVES[name]


@pytest.mark.parametrize("name", sorted(NODE_LIMIT_CHECKPOINTS))
def test_node_limit_checkpoint_is_byte_identical(name):
    with pytest.raises(SolverError) as info:
        solve(_spec(name, node_limit=2500))
    ckpt = info.value.checkpoint
    assert (ckpt.nodes, _sha(ckpt.to_json())) == NODE_LIMIT_CHECKPOINTS[name]
