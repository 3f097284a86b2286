"""Opcode word vectors, factorised in closed form from co-occurrence counts.

A token is a token byte: the opcode byte of an instruction, immediates
dropped (PUSH0..PUSH32 distinct), with the undefined bytes mapped to
0xFE, as they share its mnemonic INVALID (``TOKEN_BYTES``). A vocabulary
keeps its vectors by mnemonic, the form its file stores, and reads them
by token byte through one 256-row table (``Vocabulary.rows``) that gives
the all-zero vector for a token it does not hold.

Training counts the (center, context) token pairs within ``window``
positions of each other, takes their positive pointwise mutual
information (context counts smoothed by the 0.75 power), and factorises
that tokens x tokens matrix with one SVD, ``U S V^T``. A token's vector
is its row of ``U sqrt(S) + V sqrt(S)`` (word plus context vectors),
zero-padded to ``word_dim``, each column signed so that its
largest-magnitude entry is positive. Skip-gram with negative sampling
factorises a shifted PMI matrix implicitly (Levy and Goldberg, NeurIPS
2014); with at most 256 tokens that matrix is factorised exactly here,
with no learning rate, epochs or random draws. Two runs over one corpus
give byte-identical vectors, and no element exceeds twice the square root
of the largest singular value.
"""

from __future__ import annotations

import hashlib
import logging
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..errors import CorruptFile, EmptyCorpus
from ..evm import BYTE_MNEMONICS, MNEMONICS, OPCODES
from .config import EmbeddingConfig

logger = logging.getLogger(__name__)

_MAGIC = b"DSVW"
_VERSION = 2

# the token byte of each opcode byte
TOKEN_BYTES = bytes(op.byte_value if op.is_defined else 0xFE
                    for op in OPCODES)
# the corpus digest reads each token as its mnemonic and a NUL
_DIGEST_PIECES = tuple(m.encode() + b"\x00" for m in BYTE_MNEMONICS)


@dataclass(frozen=True)
class Vocabulary:
    vectors: dict  # mnemonic -> np.ndarray[float32] of word_dim
    word_dim: int
    training_corpus_hash: bytes
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.zeros((256, self.word_dim), dtype=np.float32)
        for byte, token in enumerate(BYTE_MNEMONICS):
            if token in self.vectors:
                table[byte] = self.vectors[token]
        object.__setattr__(self, "_table", table)

    def rows(self, tokens: bytes) -> np.ndarray:
        """One float32 word vector row per token byte (or opcode byte);
        zeros for a token the vocabulary does not hold."""
        return self._table[np.frombuffer(tokens, dtype=np.uint8)]


def _corpus_hash(corpus) -> bytes:
    digest = hashlib.sha256()
    for sequence in corpus:
        digest.update(b"".join(map(_DIGEST_PIECES.__getitem__, sequence)))
        digest.update(b"\x01")
    return digest.digest()


def _window_pairs(ids, lengths, window):
    """(center, context) id pairs within ``window`` positions inside each
    sequence of the flat ``ids``, ordered sequence by sequence, then by
    center, then by context position."""
    pos = np.arange(ids.size)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    end = np.repeat(np.cumsum(lengths), lengths)
    ctx = pos[:, None] + np.concatenate([np.arange(-window, 0),
                                         np.arange(1, window + 1)])
    keep = (ctx >= first[:, None]) & (ctx < end[:, None])
    centers = np.broadcast_to(ids[:, None], ctx.shape)[keep]
    return centers, ids[ctx[keep]]


def train_vocabulary(corpus: list, config: EmbeddingConfig) -> Vocabulary:
    """Word vectors of the tokens of ``corpus``, factorised in closed form
    from their positive PMI within ``config.window`` positions.

    corpus: list of token byte strings (opcode bytes are read as their
    tokens). Raises EmptyCorpus when no tokens exist.
    """
    sequences = [seq for seq in corpus if seq]
    if not sequences:
        raise EmptyCorpus("no tokens in corpus")

    stream = np.frombuffer(b"".join(sequences).translate(TOKEN_BYTES),
                           dtype=np.uint8)
    counts = np.bincount(stream, minlength=256)
    tokens = sorted(np.flatnonzero(counts).tolist(),
                    key=lambda t: (-counts[t], BYTE_MNEMONICS[t]))
    vocab_size = len(tokens)
    dim = config.word_dim

    id_of = np.zeros(256, dtype=np.intp)
    id_of[tokens] = np.arange(vocab_size)
    lengths = np.fromiter(map(len, sequences), dtype=np.int64)
    centers, contexts = _window_pairs(id_of[stream], lengths, config.window)
    pairs = np.bincount(centers * vocab_size + contexts,
                        minlength=vocab_size * vocab_size
                        ).reshape(vocab_size, vocab_size).astype(np.float64)

    # PMI(w, c) = log(#(w, c) * sum_c' #c'^0.75 / (#w * #c^0.75)); pairs
    # never seen read 0
    smoothed = pairs.sum(axis=0) ** 0.75
    ratio = np.divide(pairs * smoothed.sum(),
                      np.outer(pairs.sum(axis=1), smoothed),
                      out=np.ones_like(pairs), where=pairs > 0)
    ppmi = np.maximum(np.log(ratio), 0.0)

    # W + C = U sqrt(S) + V sqrt(S), each column signed so that its
    # largest-magnitude entry is positive
    u, s, vt = np.linalg.svd(ppmi)
    rank = min(vocab_size, dim)
    words = (u[:, :rank] + vt[:rank].T) * np.sqrt(s[:rank])
    largest = words[np.abs(words).argmax(axis=0), np.arange(rank)]
    words *= np.where(largest < 0, -1.0, 1.0)
    table = np.zeros((vocab_size, dim), dtype=np.float32)
    table[:, :rank] = words

    vectors = {BYTE_MNEMONICS[t]: table[i] for i, t in enumerate(tokens)}
    logger.info("trained vocabulary: %d tokens, %d window pairs",
                vocab_size, centers.size)
    return Vocabulary(vectors, dim, _corpus_hash(sequences))


def save_vocabulary(vocab: Vocabulary, path) -> None:
    payload = bytearray()
    for token in sorted(vocab.vectors):
        raw = token.encode("utf-8")
        payload += struct.pack("<H", len(raw)) + raw
        payload += vocab.vectors[token].astype("<f4").tobytes()
    payload += vocab.training_corpus_hash  # corpus digest, for audit
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<HHII", _VERSION, vocab.word_dim,
                             len(vocab.vectors), zlib.crc32(bytes(payload))))
        fh.write(payload)


def load_vocabulary(path) -> Vocabulary:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16 or data[:4] != _MAGIC:
        raise CorruptFile("bad vocabulary magic")
    version, dim, count, checksum = struct.unpack("<HHII", data[4:16])
    if version != _VERSION:
        raise CorruptFile(f"unsupported vocabulary version {version}")
    if zlib.crc32(data[16:]) != checksum:
        raise CorruptFile("vocabulary checksum mismatch")
    pos = 16
    vectors = {}
    try:
        for _ in range(count):
            (token_len,) = struct.unpack("<H", data[pos:pos + 2])
            pos += 2
            token = data[pos:pos + token_len].decode("utf-8")
            pos += token_len
            if token not in MNEMONICS:
                raise CorruptFile(f"unknown token {token!r}")
            raw_vec = data[pos:pos + 4 * dim]
            if len(raw_vec) != 4 * dim:
                raise CorruptFile("truncated vector record")
            vec = np.frombuffer(raw_vec, dtype="<f4").copy()
            pos += 4 * dim
            vectors[token] = vec
    except (struct.error, UnicodeDecodeError) as exc:
        raise CorruptFile(f"truncated vocabulary file: {exc}") from exc
    corpus_hash = data[pos:pos + 32]
    if len(corpus_hash) != 32:
        raise CorruptFile("missing corpus digest")
    if pos + 32 != len(data):
        raise CorruptFile("trailing bytes in vocabulary file")
    return Vocabulary(vectors, dim, corpus_hash)
