"""Byte-identity oracle for the Theorem 2 constructions.

Pins the SHA-256 of the block vertex lists of every even optimal
covering from n = 6 to 42 and of every pole decomposition of
``K_{n'}`` for n' = 7, 11, …, 43 (the odd-side scaffold that the
n ≡ 2 (mod 4) coverings are cut from), plus the serialized
``closed_form`` envelopes for three even rings beyond the goldens'
n ≤ 11.  Any change to the completion search, its candidate order or
the pole deletion shows up here as a changed digest.

The values were captured before the completion search and the pole
deletion were rewritten; they must never be edited to make a change
pass.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.api import CoverSpec, solve
from repro.core.construction import optimal_covering
from repro.core.engine import exact_decomposition
from repro.core.pole import pole_decomposition
from repro.util import circular
from repro.util.errors import SolverError

# n -> sha256(json of the block vertex lists of optimal_covering(n))
EVEN_COVERINGS = {
    6: "1abda581068c0a356e0238328083fe6f773511e2b65f5f2a5aa4cd5a03054882",
    8: "1621c117f0182b9d07ec5e55b30b921078aaf19f57fb1820bc12f6c3a8b75a50",
    10: "09754f961dce61ad3544827efdfc8d10614105ddf4d8abf4359f62fd8b06e809",
    12: "7427683a31757c3455450a7177bf0fbfa99bea44f64b6feb19771ed8bf3e7be0",
    14: "bd283a9ec37c26f49d24426685d286a444225a147ec6e879f7a0d75b5c37e87d",
    16: "9c00e1486553a72f97461d01c8c7d1dab45a896b7d1e2fbf485ad373d0961b2a",
    18: "c1ccd0d72c6fe1826774daadec650d236d55f0aa89bfaf4d2c2bd162345561fd",
    20: "a30057de418d58aa73d1490758ad5ad2b8928a0d871c6e064b7fe4f3405f0f7e",
    22: "91c1ca9aac4d21200d056deb38e4017e023a8e9580af6c3b1cc6985c31327b2c",
    24: "c69b67ba0f5e14e32d394dd5441731e9b4e9c38cce0754b94726ed8f01343211",
    26: "3905f10b46536f9dc4decd1d9a9ef8b46d027f21763ce828c5e0c0ed6cff0c98",
    28: "d08a288d2f9a0dc6476f4f8c17bd745b0b7afd10007daa2e7ea00f56b6a59681",
    30: "ae370346eb606584e5c8a47bb3af9137a6f5e2c24bd2acf7e732a0cfcef40e4c",
    32: "80a36d458221e0617e9c0d426f32dab6af6e9bdc87adc2846b68a7b8590efeb2",
    34: "1ad284d9a4782e00d88de1ebce7bcb7d5d502ca281fcb146524ea85e684f245c",
    36: "451934d4893d848468551e9f83d4242a790f370cf177c7a38184dccb316bde95",
    38: "f85403232cdbe858d3b61d3b3433d85a0e88f361f00c4bb04e5ade5e74854b5e",
    40: "65164359024245ed2d59b0060f5b5ba0b3e77b20268fc8bdd07ee556c070411f",
    42: "c0c8901002eaaf490b29849d76b4fe9907c6fe0ea8d0abc234aef0246278df7b",
}

# n' -> sha256(json of the block vertex lists of pole_decomposition(n'))
POLE_DECOMPOSITIONS = {
    7: "755409b9ee465e9e06a178f1c75956456383855bead4f62b52d3bd87dd9aba53",
    11: "83f0cecd80a5f7c5b4de5313467b8c3f15163ce74b28e6e93c25d15a506339c8",
    15: "00438dd271215a5c9f45a6f8b4e74d093561aca29eeb946581129c3e097944df",
    19: "531804848fe25cc341064ba4724ad41cf6b17a7ad1c8c1e4a884413a4bc4422a",
    23: "693499817c907cfc2a4449de9b8e94bac90194c0abf362510a2f1f50ccdd5e76",
    27: "e57a533b179bb72f26ba306ee650befaf8639e3d5d496583d37f79e5f93b4578",
    31: "68fa7ca97d93bb74e495d9305580bb36480bdd2ba7f9518f469ac65fa207995f",
    35: "2d8eea6380311a9613ce2ec78c71c4bd4edc2260f470434be5d72f9dbfa85a4b",
    39: "5b9b1afba48a6e89d879171b11afb22063d34816e0f504687d1c7efd74e1cd26",
    43: "fffce258531155266327fe6e40e1bd58a837a4bfa8f0f0b3d75d51f67c463b12",
}

# n -> sha256(solve(CoverSpec.for_ring(n)).to_json()), all closed_form
CLOSED_FORM_ENVELOPES = {
    14: "879bfa696e8ca0becd0dfb1f7a36e32f4b3f35ec9692229c0ada0965adf0b191",
    30: "0a27cc061598a49cb4b95af386622bcf55a5e011fb2040e9711ac85013e52c56",
    38: "3ab4f7a4cca1fc6c5d369ca6f3f106b96fa383f56374e9192019a0096b9df043",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _blocks_sha(covering) -> str:
    return _sha(json.dumps([list(blk.vertices) for blk in covering.blocks]))


@pytest.mark.parametrize("n", sorted(EVEN_COVERINGS))
def test_even_covering_is_byte_identical(n):
    assert _blocks_sha(optimal_covering(n)) == EVEN_COVERINGS[n]


@pytest.mark.parametrize("n_prime", sorted(POLE_DECOMPOSITIONS))
def test_pole_decomposition_is_byte_identical(n_prime):
    assert _blocks_sha(pole_decomposition(n_prime)) == POLE_DECOMPOSITIONS[n_prime]


@pytest.mark.parametrize("n", sorted(CLOSED_FORM_ENVELOPES))
def test_closed_form_envelope_is_byte_identical(n):
    result = solve(CoverSpec.for_ring(n))
    assert result.backend == "closed_form"
    assert _sha(result.to_json()) == CLOSED_FORM_ENVELOPES[n]


def test_exact_decomposition_node_limit_raises():
    # K_5 needs at least three blocks, so a one-node budget overruns —
    # the path pole_decomposition's fallback to the other pole quad
    # relies on.
    edges = frozenset(circular.all_chords(5))
    with pytest.raises(SolverError, match="exceeded node limit 1 for n=5"):
        exact_decomposition(5, edges, node_limit=1)
