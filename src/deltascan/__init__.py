"""deltascan: permission-defect detection for ERC-721 runtime bytecode.

The library disassembles EVM bytecode, recovers function-level control-flow
graphs through the dispatcher, embeds each basic block with frozen
sequence + graph encoders, and flags functions whose block vectors sit close
to those of a known-defective function with the same selector, compared
exactly against every such function in the index.
"""

from .cfg import (BasicBlock, ContractAnalysis, Edge, ExecutionPath,
                  FunctionCfg, PathEnumeration, SelectorMap, analyze_contract,
                  enumerate_paths, partition_blocks,
                  recover_functions, resolve_edges)
from .detectors import (DefectClass, DefectRecord, MappedDefect,
                        detect_bypass_reentrancy, map_report,
                        parse_report_file, signature_selector,
                        validate_signature)
from .encoder import (EmbeddingConfig, EncoderParams, FunctionEmbedding,
                      PathEmbedding, Vocabulary, embed_contract,
                      embed_function, embed_path,
                      encode_graph, encode_sequences, fuse_block,
                      fusion_weights, load_vocabulary, pool_block,
                      save_vocabulary, train_vocabulary)
from .errors import (BadAddress, CorruptFile, DeltascanError,
                     DimensionMismatch, EmptyCorpus, EmptyFunction,
                     MalformedSignature, NetworkError, NotAContract,
                     SchemaError, ShapeMismatch)
from .evm import (Instruction, Opcode, Program, OPCODES, disassemble,
                  parse_hex_input, reserialize, strip_metadata)
from .fetch import FetchClient, HttpTransport
from .index import (AnnIndex, EntryLabel, Finding, IndexEntry, decide_similar,
                    load_index, save_index)
from .keccak import keccak256
from .pipeline import (PipelineConfig, ScanResult, cmd_ablate, cmd_detect,
                       cmd_embed)

__version__ = "0.1.0"
