"""Skip-gram opcode embeddings trained from scratch.

A token is a token byte: the opcode byte of an instruction, immediates
dropped (PUSH0..PUSH32 distinct), with the undefined bytes mapped to
0xFE, as they share its mnemonic INVALID (``TOKEN_BYTES``). A vocabulary
keeps its vectors by mnemonic, the form its file stores, and reads them
by token byte through one 256-row table (``Vocabulary.rows``) that gives
the all-zero vector for a token it does not hold. Training uses negative
sampling with a seeded generator so two runs over the same corpus produce
byte-identical vectors.
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

_NEGATIVES = 5
_BASE_LR = 0.025
_EPOCHS = 3
_MAX_PAIRS = 200_000
_BATCH = 1024

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


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _window_pairs(ids, lengths, window):
    """(center, context) id pairs within ``window`` positions inside each
    sequence of the flat ``ids``, ordered sequence by sequence, then by
    center, then by context position: the order the ``_MAX_PAIRS`` stride
    samples from."""
    pos = np.arange(ids.size)
    first = np.repeat(np.cumsum(lengths) - lengths, lengths)
    end = np.repeat(np.cumsum(lengths), lengths)
    ctx = pos[:, None] + np.concatenate([np.arange(-window, 0),
                                         np.arange(1, window + 1)])
    keep = (ctx >= first[:, None]) & (ctx < end[:, None])
    centers = np.broadcast_to(ids[:, None], ctx.shape)[keep]
    return centers, ids[ctx[keep]]


def _add_rows(w, index, rows):
    """``np.add.at(w, index, rows(np.arange(index.size)))``, bit for bit
    except that, where NaNs of different payloads meet, the NaN kept may
    differ.

    ``rows(sel)`` returns a new float32 ``(sel.size, d)`` array holding the
    updates at positions ``sel``. Each hit row of ``w`` takes its updates in
    index order: the first update plus the current value, then a reduce
    over axis 0 of the C-contiguous updates, which adds row after row.
    ``np.add.reduceat`` does not give the same bits.
    """
    counts = np.bincount(index, minlength=w.shape[0])
    ends = np.cumsum(counts)
    order = np.argsort(index, kind="stable")
    for r in np.flatnonzero(counts).tolist():
        upd = rows(order[ends[r] - counts[r]:ends[r]])
        upd[0] += w[r]
        w[r] = np.add.reduce(upd, axis=0)


def train_vocabulary(corpus: list, config: EmbeddingConfig) -> Vocabulary:
    """Train skip-gram embeddings over token sequences.

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
    rng = np.random.default_rng(config.seed)

    w_in = ((rng.random((vocab_size, dim), dtype=np.float32) - 0.5) / dim)
    w_out = np.zeros((vocab_size, dim), dtype=np.float32)

    # the narrowest unsigned ids: the stable argsorts of ``_add_rows`` then
    # take numpy's radix sort
    id_type = np.min_scalar_type(vocab_size - 1)
    id_of = np.zeros(256, dtype=id_type)
    id_of[tokens] = np.arange(vocab_size)
    ids = id_of[stream]
    lengths = np.fromiter(map(len, sequences), dtype=np.int64)
    centers, contexts = _window_pairs(ids, lengths, config.window)
    if centers.size > _MAX_PAIRS:
        stride = centers.size / _MAX_PAIRS
        keep = (np.arange(_MAX_PAIRS) * stride).astype(np.int64)
        centers, contexts = centers[keep], contexts[keep]

    freq = counts[tokens].astype(np.float64) ** 0.75
    noise = (freq / freq.sum()) if vocab_size > 1 else np.ones(1)
    # Generator.choice(p=noise) draws through this cdf
    cdf = noise.cumsum()
    cdf /= cdf[-1]

    width = 1 + _NEGATIVES
    total_steps = max(1, _EPOCHS * ((centers.size + _BATCH - 1) // _BATCH))
    step = 0
    for _ in range(_EPOCHS):
        order = rng.permutation(centers.size)
        for start in range(0, centers.size, _BATCH):
            batch = order[start:start + _BATCH]
            c, o = centers[batch], contexts[batch]
            negatives = cdf.searchsorted(
                rng.random((batch.size, _NEGATIVES)), side="right"
            ).astype(id_type)
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
            flat = grad.reshape(-1)
            _add_rows(w_in, c, lambda sel: grad_vc[sel] * -lr)
            _add_rows(w_out, targets.reshape(-1),
                      lambda sel: (flat[sel, None] * vc[sel // width]) * -lr)

    vectors = {BYTE_MNEMONICS[t]: np.ascontiguousarray(w_in[i],
                                                       dtype=np.float32)
               for i, t in enumerate(tokens)}
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
