from .config import EmbeddingConfig
from .vocab import Vocabulary, train_vocabulary, save_vocabulary, load_vocabulary
from .params import EncoderParams
from .sequence import embed_path, encode_sequences, PathEmbedding
from .fusion import fusion_weights, fuse_block
from .graph import (InstructionGraph, build_instruction_graph, encode_graph,
                    pool_block)
from .embed import FunctionEmbedding, embed_function

__all__ = [
    "EmbeddingConfig", "Vocabulary", "train_vocabulary",
    "save_vocabulary", "load_vocabulary",
    "EncoderParams",
    "embed_path", "encode_sequences", "PathEmbedding",
    "fusion_weights", "fuse_block",
    "InstructionGraph", "build_instruction_graph", "encode_graph",
    "pool_block", "FunctionEmbedding", "embed_function",
]
