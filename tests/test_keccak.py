"""keccak256 against the independent reference over one and several
136-byte blocks, including every padding case at the rate boundary."""

import random

import pytest

from deltascan.keccak import keccak256
from oracles.keccak_ref import keccak256 as keccak_ref


def _data(length, seed=0):
    return random.Random(seed * 100_003 + length).randbytes(length)


def test_empty_input_digest():
    assert keccak256(b"").hex() == (
        "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470")


def test_every_length_up_to_300_matches_oracle():
    # 0-300 bytes: one to three blocks, the one-byte 0x81 pad at 135
    # and 271, a whole padding block at 136 and 272
    for length in range(301):
        data = _data(length)
        assert keccak256(data) == keccak_ref(data), length


@pytest.mark.parametrize("length", [135, 136, 137, 271, 272])
def test_rate_boundaries_match_oracle(length):
    for seed in range(1, 4):
        data = _data(length, seed)
        assert keccak256(data) == keccak_ref(data)
    assert keccak256(b"\xff" * length) == keccak_ref(b"\xff" * length)


def test_24_kb_input_matches_oracle():
    data = _data(24 * 1024)
    assert keccak256(data) == keccak_ref(data)
