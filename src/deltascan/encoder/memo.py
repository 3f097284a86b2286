"""A bounded memo of sequence encodings, kept on the encoder parameters.

A path's encoding depends on its own token rows only: it is the same, bit
for bit, in any batch (see ``sequence``). So a path seen before under the
same vocabulary object is served from here instead of being encoded
again. The memo lives on one params object, whose config never changes,
so the vocabulary is all it is bound to. Cloned functions share their token paths, because
immediates are dropped from the tokens, so a scan of many clones encodes
each distinct path once for as long as its ``EncoderParams`` live.
"""

from __future__ import annotations

__all__ = ["MEMO_ROWS", "PathMemo"]

# encoder rows one memo holds at most: 24 MiB of float32 at seq_dim 96
MEMO_ROWS = 1 << 16


class PathMemo(dict):
    """Path token tuple -> ``(rows, truncated)``, as ``encode_sequences``
    and ``embed_path`` give them, least recently used first; past
    MEMO_ROWS rows, those go first. The rows are read-only copies, so an
    entry never keeps its batch alive and a write into one fails. Change
    it through ``bind``, ``hit``, ``add`` and ``clear`` only: they keep
    ``rows`` counted."""

    def __init__(self):
        super().__init__()
        self.owner = None   # the vocabulary the entries were made with
        self.rows = 0

    def clear(self):
        super().clear()
        self.rows = 0

    def bind(self, vocab) -> PathMemo:
        """This memo, emptied first unless its entries were encoded with
        this very vocabulary object. The vocabulary is held, so its id
        cannot be reused by another one."""
        if self.owner is not vocab:
            self.clear()
            self.owner = vocab
        return self

    def hit(self, key):
        """The entry under ``key``, now the most recently used, or None."""
        entry = self.pop(key, None)
        if entry is not None:
            self[key] = entry
        return entry

    def add(self, key, rows, truncated: bool) -> tuple:
        """Store a read-only copy of ``rows`` under ``key``, evict the least
        recently used entries past MEMO_ROWS, and return the new entry."""
        rows = rows.copy()
        rows.flags.writeable = False
        entry = self[key] = (rows, truncated)
        self.rows += len(rows)
        while self.rows > MEMO_ROWS:
            old, _ = self.pop(next(iter(self)))
            self.rows -= len(old)
        return entry
