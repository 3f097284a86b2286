"""Keccak-256 as Solidity's keccak256 builtin computes it (pre-NIST
padding: ``hashlib.sha3_256`` pads with 0x06, not 0x01). It hashes ABI
signatures only, for the selectors (``detectors.signature_selector``) that
the dispatcher's PUSH4 constants hold; ``Program.code_hash`` is SHA-256.
"""

from struct import unpack_from

_MASK = (1 << 64) - 1
_RATE = 136  # bytes, for capacity 512 (keccak-256)
_ROUND_CONSTANTS = (
    0x1, 0x8082, 0x800000000000808A, 0x8000000080008000, 0x808B, 0x80000001,
    0x8000000080008081, 0x8000000000008009, 0x8A, 0x88, 0x80008009, 0x8000000A,
    0x8000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
    0x8000000000008002, 0x8000000000000080, 0x800A, 0x800000008000000A,
    0x8000000080008081, 0x8000000000008080, 0x80000001, 0x8000000080008008)
_ROTATIONS = ((0, 36, 3, 41, 18), (1, 44, 10, 45, 2), (62, 6, 43, 15, 61),
              (28, 55, 25, 21, 56), (27, 20, 39, 8, 14))
# rho + pi as (source lane, destination lane, rotation), lanes indexed
# x + 5*y: lane (x, y) is rotated by _ROTATIONS[x][y], moves to (y, 2x + 3y)
_RHO_PI = tuple((x + 5 * y, y + 5 * ((2 * x + 3 * y) % 5), _ROTATIONS[x][y])
                for x in range(5) for y in range(5))


def _rotl(lane: int, n: int) -> int:
    return ((lane << n) | (lane >> (64 - n))) & _MASK


def _keccak_f(state: list) -> list:
    """keccak-f[1600] of a flat 25-lane list, as a new list."""
    a, b = list(state), [0] * 25
    for rc in _ROUND_CONSTANTS:
        # theta, then rho + pi on the theta-applied lanes
        c = [a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20]
             for x in range(5)]
        d = [c[x - 1] ^ _rotl(c[(x + 1) % 5], 1) for x in range(5)]
        for src, dst, rot in _RHO_PI:
            b[dst] = _rotl(a[src] ^ d[src % 5], rot)
        # chi over each row, then iota on lane (0, 0)
        for y in range(0, 25, 5):
            row = b[y:y + 5]
            for x in range(5):
                a[y + x] = row[x] ^ (~row[(x + 1) % 5] & row[(x + 2) % 5])
        a[0] ^= rc
    return a


def keccak256(data: bytes) -> bytes:
    """Return the 32-byte Keccak-256 digest of ``data``."""
    # pad10*1: 0x01 after the data, 0x80 on the block's last byte
    pad_len = _RATE - len(data) % _RATE
    padded = bytes(data) + (b"\x01" + b"\x00" * (pad_len - 2) + b"\x80"
                            if pad_len >= 2 else b"\x81")
    state = [0] * 25
    for offset in range(0, len(padded), _RATE):
        words = unpack_from("<17Q", padded, offset)  # _RATE / 8 lanes
        state = _keccak_f([s ^ w for s, w in zip(state, words)] + state[17:])
    return b"".join(lane.to_bytes(8, "little") for lane in state[:4])
