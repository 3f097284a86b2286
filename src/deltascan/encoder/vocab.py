"""Skip-gram opcode embeddings trained from scratch.

Tokens are opcode mnemonics (immediates dropped, PUSH0..PUSH32 distinct).
Training uses negative sampling with a seeded generator so two runs over
the same corpus produce byte-identical vectors. Out-of-vocabulary lookups
return the all-zero vector.
"""

from __future__ import annotations

import hashlib
import logging
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import CorruptFile, EmptyCorpus
from .config import EmbeddingConfig

logger = logging.getLogger(__name__)

_MAGIC = b"DSVW"
_VERSION = 2

_NEGATIVES = 5
_BASE_LR = 0.025
_EPOCHS = 3
_MAX_PAIRS = 200_000
_BATCH = 1024


@dataclass(frozen=True)
class Vocabulary:
    vectors: dict  # token -> np.ndarray[float32] of word_dim
    word_dim: int
    training_corpus_hash: bytes

    def lookup(self, token: str) -> np.ndarray:
        vec = self.vectors.get(token)
        if vec is None:
            return np.zeros(self.word_dim, dtype=np.float32)
        return vec

    def __contains__(self, token: str) -> bool:
        return token in self.vectors

    def __len__(self) -> int:
        return len(self.vectors)


def _corpus_hash(corpus) -> bytes:
    digest = hashlib.sha256()
    for sequence in corpus:
        for token in sequence:
            digest.update(token.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
    return digest.digest()


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def train_vocabulary(corpus: list, config: EmbeddingConfig | None = None) -> Vocabulary:
    """Train skip-gram embeddings over token sequences.

    corpus: list of token lists. Raises EmptyCorpus when no tokens exist.
    """
    config = config or EmbeddingConfig()
    sequences = [seq for seq in corpus if seq]
    if not sequences:
        raise EmptyCorpus("no tokens in corpus")

    counts: dict = {}
    for seq in sequences:
        for token in seq:
            counts[token] = counts.get(token, 0) + 1
    tokens = sorted(counts, key=lambda t: (-counts[t], t))
    index = {t: i for i, t in enumerate(tokens)}
    vocab_size = len(tokens)
    dim = config.word_dim
    rng = np.random.default_rng(config.seed)

    w_in = ((rng.random((vocab_size, dim), dtype=np.float32) - 0.5) / dim)
    w_out = np.zeros((vocab_size, dim), dtype=np.float32)

    # all (center, context) pairs inside the fixed window
    centers, contexts = [], []
    window = config.window
    for seq in sequences:
        ids = [index[t] for t in seq]
        for pos, center in enumerate(ids):
            lo = max(0, pos - window)
            hi = min(len(ids), pos + window + 1)
            for ctx_pos in range(lo, hi):
                if ctx_pos != pos:
                    centers.append(center)
                    contexts.append(ids[ctx_pos])
    centers = np.asarray(centers, dtype=np.int64)
    contexts = np.asarray(contexts, dtype=np.int64)
    if centers.size > _MAX_PAIRS:
        stride = centers.size / _MAX_PAIRS
        keep = (np.arange(_MAX_PAIRS) * stride).astype(np.int64)
        centers, contexts = centers[keep], contexts[keep]

    freq = np.array([counts[t] for t in tokens], dtype=np.float64) ** 0.75
    noise = (freq / freq.sum()) if vocab_size > 1 else np.ones(1)

    total_steps = max(1, _EPOCHS * ((centers.size + _BATCH - 1) // _BATCH))
    step = 0
    for _ in range(_EPOCHS):
        order = rng.permutation(centers.size)
        for start in range(0, centers.size, _BATCH):
            batch = order[start:start + _BATCH]
            c, o = centers[batch], contexts[batch]
            negatives = rng.choice(vocab_size, size=(batch.size, _NEGATIVES), p=noise)
            lr = np.float32(_BASE_LR * max(0.05, 1.0 - step / total_steps))
            step += 1

            vc = w_in[c]                                    # (B, d)
            targets = np.concatenate([o[:, None], negatives], axis=1)  # (B, 1+k)
            vt = w_out[targets]                             # (B, 1+k, d)
            score = _sigmoid(np.einsum("bd,bkd->bk", vc, vt))
            label = np.zeros_like(score)
            label[:, 0] = 1.0
            grad = (score - label).astype(np.float32)       # (B, 1+k)

            grad_vc = np.einsum("bk,bkd->bd", grad, vt)
            grad_vt = grad[:, :, None] * vc[:, None, :]
            np.add.at(w_in, c, -lr * grad_vc)
            np.add.at(w_out, targets.reshape(-1),
                      -lr * grad_vt.reshape(-1, dim))

    vectors = {t: np.ascontiguousarray(w_in[i], dtype=np.float32)
               for t, i in index.items()}
    logger.info("trained vocabulary: %d tokens, %d training pairs",
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
