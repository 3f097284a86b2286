"""Exception types shared across deltascan modules."""


class DeltascanError(Exception):
    """Base class for all deltascan errors."""


class EmptyCorpus(DeltascanError):
    """Vocabulary training received an empty corpus."""


class VocabularyDiverged(DeltascanError):
    """A vocabulary to be stored holds word vectors that are not finite.
    The closed-form trainer gives finite vectors; ``embed`` checks them
    anyway before it writes a file."""


class DimensionMismatch(DeltascanError):
    """Tensor or vector dimensions do not agree with the configuration."""


class ShapeMismatch(DeltascanError):
    """Block occurrence slices disagree in shape."""


class EmptyFunction(DeltascanError):
    """A function CFG with zero basic blocks cannot be embedded."""


class MalformedSignature(DeltascanError):
    """Function signature is not in canonical ABI form."""


class SchemaError(DeltascanError):
    """A single report record violates the report schema."""

    def __init__(self, index: int, message: str):
        super().__init__(f"record {index}: {message}")
        self.index = index
        self.message = message


class CorruptFile(DeltascanError):
    """A persisted artifact failed magic/version/checksum validation."""


class BadAddress(DeltascanError):
    """Contract address is not a well-formed 20-byte hex string."""


class NotAContract(DeltascanError):
    """The address has no deployed code."""


class NetworkError(DeltascanError):
    """Explorer API request failed after retries."""
