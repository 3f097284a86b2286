"""Explorer API client: fetch runtime bytecode by address with a local
file cache, rate limiting, and retry with exponential backoff.

The transport is injectable so tests never touch the network.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import time
from pathlib import Path

from .errors import BadAddress, NetworkError, NotAContract

logger = logging.getLogger(__name__)

_ADDRESS_RE = re.compile(r"^0x[0-9a-fA-F]{40}$")


class ThrottledError(Exception):
    """Transport-level signal that the API asked us to slow down."""


class HttpTransport:
    """Default transport issuing eth_getCode-style JSON-RPC requests."""

    def __init__(self, base_url: str, api_key: str | None = None,
                 timeout: float = 30.0):
        self.base_url = base_url
        self.api_key = api_key
        self.timeout = timeout

    def get_code(self, address: str) -> str:
        import requests

        payload = {"jsonrpc": "2.0", "id": 1, "method": "eth_getCode",
                   "params": [address, "latest"]}
        params = {"apikey": self.api_key} if self.api_key else None
        try:
            resp = requests.post(self.base_url, json=payload, params=params,
                                 timeout=self.timeout)
        except requests.RequestException as exc:
            raise NetworkError(str(exc)) from exc
        if resp.status_code == 429:
            raise ThrottledError()
        if resp.status_code != 200:
            raise NetworkError(f"HTTP {resp.status_code}")
        try:
            body = resp.json()
        except json.JSONDecodeError as exc:
            raise NetworkError(f"bad JSON response: {exc}") from exc
        if "result" not in body:
            raise NetworkError(f"RPC error: {body.get('error')}")
        return body["result"]


class FetchClient:
    def __init__(self, transport, cache_dir, requests_per_second: float = 5.0,
                 max_retries: int = 3, sleep=time.sleep):
        self.transport = transport
        self.cache_dir = Path(cache_dir)
        self.min_interval = 1.0 / requests_per_second if requests_per_second else 0.0
        self.max_retries = max_retries
        self._sleep = sleep
        self._last_request = 0.0
        self.network_calls = 0

    def _cache_path(self, address: str) -> Path:
        return self.cache_dir / f"{address.lower()}.bin"

    def _rate_limit(self) -> None:
        now = time.monotonic()
        wait = self.min_interval - (now - self._last_request)
        if wait > 0:
            self._sleep(wait)
        self._last_request = time.monotonic()

    def fetch(self, address: str) -> Path:
        """Return the cache path of the address's runtime bytecode,
        downloading it on a cache miss. Raises NotAContract on empty code."""
        if not _ADDRESS_RE.match(address):
            raise BadAddress(address)
        path = self._cache_path(address)
        if path.exists():
            return path
        backoff = 1.0
        last_error: Exception | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._sleep(backoff)
                backoff *= 2
            self._rate_limit()
            try:
                self.network_calls += 1
                result = self.transport.get_code(address)
                break
            except ThrottledError:
                last_error = NetworkError("throttled")
                continue
            except NetworkError as exc:
                last_error = exc
                continue
        else:
            raise last_error or NetworkError("fetch failed")
        try:
            code = bytes.fromhex(result.removeprefix("0x"))
        except (AttributeError, ValueError):
            raise NetworkError(f"malformed code {result!r}") from None
        if not code:
            raise NotAContract(address)
        # written whole or not at all: the cache trusts any file it finds
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        fd, name = tempfile.mkstemp(dir=self.cache_dir, suffix=".part")
        os.close(fd)
        tmp = Path(name)
        try:
            tmp.write_bytes(code)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
        return path

    def fetch_many(self, addresses) -> dict:
        """Fetch a batch; per-address failures are collected, not fatal
        (except BadAddress, which indicates caller error)."""
        results = {}
        for address in addresses:
            if not _ADDRESS_RE.match(address):
                raise BadAddress(address)
        for address in addresses:
            try:
                results[address] = self.fetch(address)
            except (NotAContract, NetworkError) as exc:
                logger.warning("fetch %s failed: %s", address, exc)
                results[address] = exc
        return results
