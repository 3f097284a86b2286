"""A bounded memo of embedded functions, kept on the encoder parameters.

Its entries are ``function key -> (block vectors, (paths truncated,
fallback blocks))``. A function's block vectors depend only on what its
key holds (see ``embed._function_key``): a path encodes to the same bits
in any batch (see ``sequence``) and graph attention is node-local, so
they are the same in any contract pass. A function seen before under the
same vocabulary object is served from here whole instead of being
embedded again. The memo lives on one params object, whose config never
changes, so the vocabulary is all it is bound to. Clones share their
function structure, because immediates are dropped from the tokens, so a
scan of many clones embeds each distinct function once for as long as
its ``EncoderParams`` live.
"""

from __future__ import annotations

__all__ = ["MEMO_BYTES", "EncoderMemo"]

# bytes of block vectors one memo holds at most: 49152 (3 * 2^14) vectors
# of float32 at block_dim 128
MEMO_BYTES = 24 << 20


class EncoderMemo(dict):
    """Function key -> ``(block vectors, counts)``, least recently used
    first; past MEMO_BYTES of vectors, those go first. The vectors are
    read-only copies, stacked into one array per entry, so an entry never
    keeps its pass alive and a write into a served vector fails. Change it
    through ``bind``, ``hit``, ``add`` and ``clear`` only: they keep
    ``nbytes`` counted."""

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
        past MEMO_BYTES, and return the new entry, kept or not."""
        array = array.copy()
        array.flags.writeable = False
        entry = self[key] = (array, info)
        self.nbytes += array.nbytes
        while self.nbytes > MEMO_BYTES:
            old, _ = self.pop(next(iter(self)))
            self.nbytes -= old.nbytes
        return entry
