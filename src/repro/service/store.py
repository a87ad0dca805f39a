"""Content-addressed result store: idempotent responses across restarts.

Completed response payloads are stored under their request key (sha256
of program fingerprints + canonical options) in an in-memory LRU
overlay, always on, and an optional on-disk layer (``<root>/<key>.json``)
that makes replay idempotent across worker restarts -- a client
retrying after a crash gets the byte-identical payload without a second
pipeline execution.  An entry is canonical JSON (sorted keys, compact
separators) wrapped in a one-line header object, so entries are
greppable and diffable.  The worker and HTTP threads share one store;
its LRU, atomic writes and quarantine of entries that do not decode
are :mod:`repro.store`'s, and no lock is held across disk I/O.

Failure policy: store trouble **never fails a request** -- the service
core wraps every call in the ``store`` circuit breaker; repeated
failures trip the ``service.store_to_memory`` rung and the store keeps
serving from :attr:`ResultStore.memory` alone.  The ``service.store``
fault site lets the chaos harness damage entries (mode ``corrupt``) or
fail I/O outright (mode ``error``).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional, Union

from repro import store
from repro.obs import events as obs
from repro.obs import metrics as obs_metrics
from repro.resilience import faults

SCHEMA_STORE = "repro.service.store/1"

#: Default in-memory overlay capacity (entries).
DEFAULT_MEMORY_ENTRIES = 256


class ResultStore:
    """Two-layer (memory + optional disk) content-addressed store."""

    def __init__(
        self,
        root: Optional[Union[str, pathlib.Path]] = None,
        memory_entries: int = DEFAULT_MEMORY_ENTRIES,
    ):
        self.root = pathlib.Path(root) if root else None
        #: The memory overlay; using it alone never touches the disk.
        self.memory = store.LRU(memory_entries)

    # ------------------------------------------------------------------
    def _note(self, result: str) -> None:
        obs_metrics.registry().counter("service.store", result=result).inc()

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored payload for ``key``, or ``None``.

        Raises on disk trouble (including injected ``service.store``
        faults in ``error`` mode) -- the caller's circuit breaker owns
        the failure policy.  A corrupt entry is quarantined and
        reported as a miss, not an error: the payload is gone either
        way and recomputing is the fix.
        """
        payload = self.memory.get(key)
        if payload is not None:
            self._note("memory-hit")
            return payload
        path = store.entry_path(self.root, key, ".json")
        if path is not None and path.exists():
            spec = faults.fire("service.store", op="get", key=key[:12])
            if spec is not None and spec.mode != "corrupt":
                raise OSError(f"injected store read failure for {key[:12]}")
            if spec is not None:
                store.damage(path)
            try:
                payload = store.read(path, lambda data: _payload(data, key))
            except store.Rejected as exc:
                obs.emit("service.store_error", key=key[:12],
                         error=str(exc), action=exc.action)
                self._note("corrupt")
                return None
        if payload is None:
            self._note("miss")
            return None
        self.memory.put(key, payload)
        self._note("disk-hit")
        return payload

    def put(self, key: str, payload: Dict[str, Any]) -> None:
        """Store ``payload`` under ``key`` (memory always, disk if rooted).

        The disk write is atomic, and identical concurrent writes are
        benign -- the content is the same bytes.  Raises on disk
        trouble; the memory overlay is already updated by then, so the
        caller's breaker can absorb the failure without losing the
        result for this process's lifetime.
        """
        self.memory.put(key, payload)
        path = store.entry_path(self.root, key, ".json")
        if path is None:
            self._note("memory-put")
            return
        spec = faults.fire("service.store", op="put", key=key[:12])
        if spec is not None:
            raise OSError(f"injected store write failure for {key[:12]}")
        doc = {"schema": SCHEMA_STORE, "key": key, "payload": payload}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        store.write(path, text.encode())
        self._note("put")

    def __len__(self) -> int:
        return len(self.memory)


def _payload(data: bytes, key: str) -> Dict[str, Any]:
    """The payload of an entry stored under ``key``; raises unless the
    entry is this store's header around a JSON object."""
    doc = json.loads(data)
    if doc.get("schema") != SCHEMA_STORE or doc.get("key") != key:
        raise ValueError("foreign or mismatched entry")
    if not isinstance(doc["payload"], dict):
        raise ValueError("malformed payload")
    return doc["payload"]
