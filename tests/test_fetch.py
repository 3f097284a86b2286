from pathlib import Path

import pytest

from deltascan.errors import BadAddress, NetworkError, NotAContract
from deltascan.fetch import FetchClient, ThrottledError

ADDR = "0x" + "ab" * 20
ADDR2 = "0x" + "cd" * 20


class FakeTransport:
    """Scripted transport: pops one canned response (or exception) per call."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def get_code(self, address):
        self.calls.append(address)
        action = self.responses.pop(0)
        if isinstance(action, Exception):
            raise action
        return action


def _client(tmp_path, responses, **kwargs):
    transport = FakeTransport(responses)
    kwargs.setdefault("sleep", lambda s: None)
    kwargs.setdefault("requests_per_second", 0)
    return FetchClient(transport, tmp_path / "cache", **kwargs), transport


def test_malformed_address_rejected(tmp_path):
    client, _ = _client(tmp_path, [])
    for bad in ("0x123", "abab", "0x" + "gg" * 20, "0x" + "ab" * 19):
        with pytest.raises(BadAddress):
            client.fetch(bad)


def test_fetch_writes_bytes_through(tmp_path):
    client, transport = _client(tmp_path, ["0x6001600201"])
    path = client.fetch(ADDR)
    assert path.read_bytes() == bytes.fromhex("6001600201")
    assert path.name == f"{ADDR}.bin"
    assert transport.calls == [ADDR]


def test_cache_hit_skips_network(tmp_path):
    client, transport = _client(tmp_path, ["0x6001"])
    first = client.fetch(ADDR)
    second = client.fetch(ADDR)
    assert first == second
    assert transport.calls == [ADDR]  # one call only
    assert client.network_calls == 1


def test_empty_code_is_not_a_contract(tmp_path):
    client, _ = _client(tmp_path, ["0x"])
    with pytest.raises(NotAContract):
        client.fetch(ADDR)
    # nothing cached for a non-contract
    assert not (tmp_path / "cache" / f"{ADDR}.bin").exists()


def test_retry_with_backoff_then_success(tmp_path):
    sleeps = []
    client, transport = _client(
        tmp_path,
        [NetworkError("boom"), ThrottledError(), "0x60ff"],
        sleep=sleeps.append)
    path = client.fetch(ADDR)
    assert path.read_bytes() == b"\x60\xff"
    assert len(transport.calls) == 3
    backoffs = [s for s in sleeps if s >= 1.0]
    assert backoffs == [1.0, 2.0]  # exponential


def test_retries_exhausted_raises_network_error(tmp_path):
    client, transport = _client(
        tmp_path, [NetworkError("x")] * 4, max_retries=3)
    with pytest.raises(NetworkError):
        client.fetch(ADDR)
    assert len(transport.calls) == 4  # initial try + 3 retries


def test_rate_limit_spacing(tmp_path):
    sleeps = []
    client, _ = _client(tmp_path, ["0x01", "0x02"],
                        requests_per_second=5, sleep=sleeps.append)
    client.fetch(ADDR)
    client.fetch(ADDR2)
    # second request must wait toward the 0.2 s interval
    assert any(0 < s <= 0.2 for s in sleeps)


def test_fetch_many_collects_failures(tmp_path):
    client, _ = _client(
        tmp_path, ["0x6001", NetworkError("a")] + [NetworkError("a")] * 3)
    results = client.fetch_many([ADDR, ADDR2])
    assert results[ADDR].read_bytes() == b"\x60\x01"
    assert isinstance(results[ADDR2], NetworkError)
    # a result that is not whole hex bytes fails its own address only,
    # and nothing is cached for it
    for bad in ("0xzz", "0xabc", None):
        client, _ = _client(tmp_path / str(bad), [bad, "0x6001"])
        results = client.fetch_many([ADDR, ADDR2])
        assert isinstance(results[ADDR], NetworkError)
        assert results[ADDR2].read_bytes() == b"\x60\x01"
        assert [p.name for p in (tmp_path / str(bad) / "cache").iterdir()] \
            == [f"{ADDR2}.bin"]


def test_interrupted_cache_write_leaves_no_entry(tmp_path, monkeypatch):
    """A write that fails part-way leaves neither a cache entry nor a
    temporary file, so the next fetch goes to the transport again."""
    client, transport = _client(tmp_path, ["0x60016002", "0x60016002"])
    real_write_bytes = Path.write_bytes

    def half_then_fail(self, data):
        real_write_bytes(self, data[:len(data) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    with pytest.raises(OSError, match="disk full"):
        client.fetch(ADDR)
    assert list((tmp_path / "cache").iterdir()) == []
    monkeypatch.undo()
    path = client.fetch(ADDR)
    assert path.read_bytes() == bytes.fromhex("60016002")
    assert transport.calls == [ADDR, ADDR]


def test_fetch_many_validates_upfront(tmp_path):
    client, transport = _client(tmp_path, ["0x6001"])
    with pytest.raises(BadAddress):
        client.fetch_many([ADDR, "0xbad"])
    assert transport.calls == []  # nothing fetched before validation


def test_second_run_is_fully_cached(tmp_path):
    client, transport = _client(tmp_path, ["0x01", "0x02"])
    client.fetch_many([ADDR, ADDR2])
    calls_before = client.network_calls
    client.fetch_many([ADDR, ADDR2])
    assert client.network_calls == calls_before
