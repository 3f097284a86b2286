"""A bounded memo of encoder results, kept on the encoder parameters.

It holds two kinds of entry, each an ``(array, info)`` pair:

- path entries, ``token tuple -> (rows, truncated)``: a path's sequence
  encoding depends on its own token rows only, the same bit for bit in
  any batch (see ``sequence``);
- function entries, ``function key -> (block vectors, (paths truncated,
  fallback blocks))``: a function's block vectors depend only on what its
  key holds (see ``embed._function_key``), and graph attention is
  node-local, so they are the same in any contract pass.

An entry seen before under the same vocabulary object is served from here
instead of being computed again. The memo lives on one params object,
whose config never changes, so the vocabulary is all it is bound to.
Clones share their token paths and their function structure, because
immediates are dropped from the tokens, so a scan of many clones embeds
each distinct function once for as long as its ``EncoderParams`` live.
"""

from __future__ import annotations

__all__ = ["MEMO_BYTES", "EncoderMemo"]

# bytes of arrays one memo holds at most: 2^16 encoder rows of float32 at
# seq_dim 96
MEMO_BYTES = 24 << 20


class EncoderMemo(dict):
    """Key -> ``(array, info)``, path and function entries alike, least
    recently used first; past MEMO_BYTES of arrays, those go first. The
    arrays are read-only copies, so an entry never keeps its batch alive
    and a write into one, or into a row of one, fails. Change it through
    ``bind``, ``hit``, ``add`` and ``clear`` only: they keep ``nbytes``
    counted."""

    def __init__(self):
        super().__init__()
        self.owner = None   # the vocabulary the entries were made with
        self.nbytes = 0

    def clear(self):
        super().clear()
        self.nbytes = 0

    def bind(self, vocab) -> EncoderMemo:
        """This memo, emptied first unless its entries were made with this
        very vocabulary object. The vocabulary is held, so its id cannot be
        reused by another one."""
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

    def add(self, key, array, info) -> tuple:
        """Store a read-only copy of ``array`` with ``info`` under ``key``,
        which the memo does not hold, evict the least recently used entries
        past MEMO_BYTES, and return the new entry."""
        array = array.copy()
        array.flags.writeable = False
        entry = self[key] = (array, info)
        self.nbytes += array.nbytes
        while self.nbytes > MEMO_BYTES:
            old, _ = self.pop(next(iter(self)))
            self.nbytes -= old.nbytes
        return entry
