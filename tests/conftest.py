import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from deltascan.encoder import EmbeddingConfig, train_vocabulary
from deltascan.encoder.params import init_params
from fixtures import token_bytes


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance-criterion verdict lines after capture ends."""
    try:
        import test_acceptance
    except ImportError:
        return
    if test_acceptance.VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in test_acceptance.VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def config():
    return EmbeddingConfig()

@pytest.fixture(scope="session")
def params(config):
    return init_params(config)

@pytest.fixture(scope="session")
def small_vocab(config):
    corpus = [token_bytes(seq) for seq in [
        ["PUSH1", "PUSH1", "ADD", "STOP"],
        ["PUSH1", "SLOAD", "POP", "CALL", "SSTORE", "STOP"],
        ["JUMPDEST", "PUSH1", "MSTORE", "PUSH1", "PUSH1", "RETURN"],
        ["DUP1", "PUSH4", "EQ", "PUSH2", "JUMPI", "REVERT"],
        ["CALLDATALOAD", "SHR", "DUP1", "SWAP1", "JUMP", "JUMPDEST"],
    ]] * 4
    return train_vocabulary(corpus, config)
