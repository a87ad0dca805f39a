"""The allocation service: protocol, admission, coalescing, store,
breakers, the core lifecycle, and the HTTP frontend.

The headline robustness invariants gated here:

* every successful response's ``result`` is byte-identical to a direct
  :func:`repro.core.pipeline.allocate_programs` call;
* every failure is a typed envelope (never a hang, never an untyped
  500);
* overload sheds immediately with ``retry_after`` (hypothesis drives
  the FIFO-within-priority + shed-exactly-at-bound property);
* identical concurrent requests share exactly one pipeline execution;
* a restarted service replays completed results from the
  content-addressed store without recomputing.
"""

import json
import pathlib
import threading
import time

import pytest

from repro.core.pipeline import allocate_programs
from repro.errors import (
    AllocationError,
    DeadlineExceeded,
    RequestRejected,
    ServiceOverloaded,
)
from repro.ir.parser import parse_program
from repro.obs import metrics as obs_metrics
from repro.resilience import guard
from repro.resilience.guard import backoff_delays
from repro.service import protocol
from repro.service.admission import AdmissionQueue
from repro.service.breaker import CircuitBreaker
from repro.service.coalesce import Coalescer
from repro.service.server import ReproServer, ServiceConfig, ServiceCore
from repro.service.store import ResultStore
from tests.conftest import FIG3_T1, MINI_KERNEL

NREG = 32


def doc_for(*, nreg=NREG, **extra):
    d = {"programs": [{"asm": MINI_KERNEL, "name": "k"}], "nreg": nreg}
    d.update(extra)
    return d


def direct_payload(nreg=NREG):
    return protocol.outcome_payload(
        allocate_programs([parse_program(MINI_KERNEL, "k")], nreg)
    )


# ----------------------------------------------------------------------
# Protocol.
# ----------------------------------------------------------------------
class TestProtocol:
    def test_defaults_materialize_into_the_key(self):
        bare = protocol.parse_request(doc_for())
        spelled = protocol.parse_request(
            doc_for(policy="greedy", check_init=True, simulate=0,
                    engine="reference", verify=False)
        )
        assert bare.key == spelled.key
        assert bare.options == spelled.options

    def test_distinct_options_distinct_keys(self):
        assert protocol.parse_request(doc_for()).key != \
            protocol.parse_request(doc_for(nreg=NREG + 8)).key
        assert protocol.parse_request(doc_for()).key != \
            protocol.parse_request(doc_for(simulate=4)).key

    def test_unknown_field_rejected(self):
        with pytest.raises(RequestRejected) as ei:
            protocol.parse_request(doc_for(bogus=1))
        assert ei.value.reason == "bad-field"

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline_s", 1e10),
            ("deadline_s", 1e12),
            ("deadline_s", float("inf")),
            ("deadline_s", float("nan")),
            ("priority", True),
            ("priority", False),
        ],
        ids=[
            "deadline-1e10",
            "deadline-1e12",
            "deadline-inf",
            "deadline-nan",
            "priority-true",
            "priority-false",
        ],
    )
    def test_bad_scheduling_field_rejected(self, field, value):
        with pytest.raises(RequestRejected) as ei:
            protocol.parse_request(doc_for(**{field: value}))
        assert ei.value.reason == "bad-field"

    def test_deadline_bounds_are_inclusive(self):
        for deadline_s in (0, protocol.MAX_DEADLINE_S):
            request = protocol.parse_request(doc_for(deadline_s=deadline_s))
            assert request.deadline_s == deadline_s

    def test_kernel_xor_asm(self):
        with pytest.raises(RequestRejected):
            protocol.parse_request(
                {"programs": [{"kernel": "crc", "asm": MINI_KERNEL}]}
            )
        with pytest.raises(RequestRejected):
            protocol.parse_request({"programs": [{}]})

    def test_too_many_programs_is_too_large(self):
        docs = [{"asm": MINI_KERNEL}] * (protocol.MAX_PROGRAMS + 1)
        with pytest.raises(RequestRejected) as ei:
            protocol.parse_request({"programs": docs})
        assert ei.value.reason == "too-large"

    def test_http_status_mapping(self):
        cases = [
            (RequestRejected("x"), 400),
            (RequestRejected("x", reason="too-large"), 413),
            (AllocationError("x"), 422),
            (ServiceOverloaded("x"), 429),
            (DeadlineExceeded("x", phase="p"), 504),
            (RuntimeError("boom"), 500),
        ]
        for exc, want in cases:
            assert protocol.http_status(protocol.error_envelope(exc)) == want

    def test_exception_round_trip(self):
        exc = protocol.exception_for(
            protocol.error_envelope(ServiceOverloaded("full", retry_after=0.2))
        )
        assert isinstance(exc, ServiceOverloaded)
        assert exc.retry_after == pytest.approx(0.2)
        exc = protocol.exception_for(
            protocol.error_envelope(DeadlineExceeded("late", phase="dequeue"))
        )
        assert isinstance(exc, DeadlineExceeded) and exc.phase == "dequeue"
        exc = protocol.exception_for(
            protocol.error_envelope(RuntimeError("boom"))
        )
        assert exc.__class__.__name__ == "ReproError" or \
            "boom" in str(exc)


# ----------------------------------------------------------------------
# Admission.
# ----------------------------------------------------------------------
class TestAdmission:
    def test_fifo_within_priority(self):
        q = AdmissionQueue(bound=8)
        q.offer("b1", priority=1)
        q.offer("b2", priority=1)
        q.offer("a1", priority=0)
        q.offer("c1", priority=2)
        q.offer("a2", priority=0)
        assert [q.take(0) for _ in range(5)] == \
            ["a1", "a2", "b1", "b2", "c1"]

    def test_shed_at_bound_is_immediate_and_typed(self):
        q = AdmissionQueue(bound=2, retry_after=0.125)
        q.offer(1)
        q.offer(2)
        t0 = time.perf_counter()
        with pytest.raises(ServiceOverloaded) as ei:
            q.offer(3)
        assert time.perf_counter() - t0 < 0.5  # never blocks
        assert ei.value.retry_after == pytest.approx(0.125)
        assert q.shed_count == 1 and q.depth == 2

    def test_closed_queue_sheds_as_draining(self):
        q = AdmissionQueue(bound=2)
        q.offer(1)
        q.close()
        with pytest.raises(ServiceOverloaded) as ei:
            q.offer(2)
        assert "draining" in str(ei.value)
        # queued items stay takeable after close (graceful drain)...
        assert q.take(0) == 1
        # ...and an empty closed queue returns the shutdown signal.
        assert q.take(0) is None

    def test_take_timeout_returns_none(self):
        q = AdmissionQueue(bound=2)
        t0 = time.perf_counter()
        assert q.take(timeout=0.05) is None
        assert 0.04 <= time.perf_counter() - t0 < 1.0


# ----------------------------------------------------------------------
# Coalescing.
# ----------------------------------------------------------------------
class TestCoalesce:
    def test_leader_then_followers_share_result(self):
        c = Coalescer()
        entry, leader = c.lease("ab" * 32)
        assert leader
        _, again = c.lease("ab" * 32)
        assert not again
        c.resolve(entry, result=("payload", []))
        assert entry.wait(1.0) == ("payload", [])
        # resolved entries leave the table: the next lease leads anew
        _, fresh = c.lease("ab" * 32)
        assert fresh

    def test_error_propagates_to_followers(self):
        c = Coalescer()
        entry, _ = c.lease("cd" * 32)
        c.resolve(entry, error=AllocationError("infeasible"))
        with pytest.raises(AllocationError):
            entry.wait(1.0)

    def test_wait_timeout_is_typed(self):
        c = Coalescer()
        entry, _ = c.lease("ef" * 32)
        with pytest.raises(DeadlineExceeded) as ei:
            entry.wait(timeout=0.01)
        assert ei.value.phase == "coalesce-wait"


# ----------------------------------------------------------------------
# Result store.
# ----------------------------------------------------------------------
class TestStore:
    KEY = "a1" * 32

    def test_round_trip_and_restart(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"sgr": 3})
        assert store.get(self.KEY) == {"sgr": 3}
        # a fresh instance (restarted worker) replays from disk
        fresh = ResultStore(tmp_path)
        assert fresh.get(self.KEY) == {"sgr": 3}
        doc = json.loads((tmp_path / f"{self.KEY}.json").read_text())
        assert doc["schema"] == "repro.service.store/1"
        assert doc["key"] == self.KEY

    def test_memory_only_without_root(self):
        store = ResultStore()
        store.put(self.KEY, {"x": 1})
        assert store.get(self.KEY) == {"x": 1}

    def test_corrupt_entry_quarantined_as_miss(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(self.KEY, {"x": 1})
        (tmp_path / f"{self.KEY}.json").write_text("{not json")
        fresh = ResultStore(tmp_path)  # cold memory: must hit disk
        assert fresh.get(self.KEY) is None
        assert list(tmp_path.glob("*.bad"))
        # the slot is reusable after quarantine
        fresh.put(self.KEY, {"x": 2})
        assert ResultStore(tmp_path).get(self.KEY) == {"x": 2}

    def test_quarantine_capped(self, tmp_path):
        store = ResultStore(tmp_path, max_quarantine=3)
        for i in range(6):
            key = f"{i:02x}" * 32
            store.put(key, {"i": i})
            (tmp_path / f"{key}.json").write_text("broken")
            store._memory.clear()
            assert store.get(key) is None
        assert len(list(tmp_path.glob("*.bad"))) <= 3

    def test_memory_lru_eviction(self):
        store = ResultStore(memory_entries=2)
        for i in range(3):
            store.put(f"{i:02x}" * 32, {"i": i})
        assert store.get("00" * 32) is None
        assert store.get("02" * 32) == {"i": 2}

    def test_malformed_key_rejected(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ValueError):
            store.put("../escape", {"x": 1})


# ----------------------------------------------------------------------
# Circuit breaker (fake clock throughout).
# ----------------------------------------------------------------------
class TestBreaker:
    def make(self, **kw):
        clk = {"t": 0.0}
        kw.setdefault("threshold", 3)
        kw.setdefault("cooldown", 10.0)
        b = CircuitBreaker("store", clock=lambda: clk["t"], **kw)
        return b, clk

    def test_trips_after_consecutive_failures(self):
        b, _ = self.make()
        b.failure("x")
        b.failure("x")
        assert b.state == "closed" and b.allow()
        b.failure("x")
        assert b.state == "open" and not b.allow()
        assert b.trips == 1

    def test_success_resets_the_streak(self):
        b, _ = self.make()
        b.failure("x")
        b.failure("x")
        b.success()
        b.failure("x")
        b.failure("x")
        assert b.state == "closed"

    def test_cooldown_half_open_then_close(self):
        b, clk = self.make()
        for _ in range(3):
            b.failure("x")
        assert not b.allow()
        clk["t"] = 10.0
        assert b.state == "half-open" and b.allow()
        b.success()
        assert b.state == "closed"

    def test_half_open_failure_reopens(self):
        b, clk = self.make()
        for _ in range(3):
            b.failure("x")
        clk["t"] = 10.0
        assert b.state == "half-open"
        b.failure("probe failed")
        assert b.state == "open"
        clk["t"] = 15.0
        assert b.state == "open"  # cooldown restarted at re-open
        clk["t"] = 20.0
        assert b.state == "half-open"

    def test_trip_records_the_ladder_rung(self):
        clk = {"t": 0.0}
        b = CircuitBreaker(
            "store",
            rung="service.store_to_memory",
            threshold=2,
            clock=lambda: clk["t"],
        )
        with guard.watching() as degs:
            b.failure("x")
            b.failure("x")
        assert [d.rung for d in degs] == ["service.store_to_memory"]

    def test_breaker_gauge_tracks_state(self):
        with obs_metrics.scoped() as reg:
            b, _ = self.make(threshold=1)
            b.failure("x")
            snap = reg.snapshot()
        assert snap["gauges"]['service.breaker{site="store",state="open"}'] \
            == 1.0
        assert snap["gauges"][
            'service.breaker{site="store",state="closed"}'] == 0.0


# ----------------------------------------------------------------------
# Jittered backoff (satellite 1).
# ----------------------------------------------------------------------
class TestBackoffJitter:
    def test_zero_jitter_is_the_classic_schedule(self):
        # 4 attempts -> 3 inter-attempt delays, the exact historical
        # schedule (byte-identical: no RNG is even consulted).
        assert backoff_delays(0.1, 4) == [
            pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4)
        ]

    def test_jitter_is_deterministic_per_label(self):
        a = backoff_delays(0.1, 4, jitter=0.5, label="analyze")
        b = backoff_delays(0.1, 4, jitter=0.5, label="analyze")
        assert a == b
        assert a != backoff_delays(0.1, 4, jitter=0.5, label="other")

    def test_jitter_only_shrinks_within_bounds(self):
        delays = backoff_delays(0.1, 6, jitter=0.5, label="x")
        for k, d in enumerate(delays):
            full = 0.1 * (2 ** k)
            assert full * 0.5 <= d <= full

    def test_explicit_rng_wins(self):
        import random

        a = backoff_delays(0.1, 3, jitter=0.9, rng=random.Random(7))
        b = backoff_delays(0.1, 3, jitter=0.9, rng=random.Random(7))
        assert a == b


# ----------------------------------------------------------------------
# ServiceCore lifecycle.
# ----------------------------------------------------------------------
class TestServiceCore:
    def make(self, tmp_path=None, **kw):
        kw.setdefault("workers", 2)
        kw.setdefault("queue_depth", 8)
        if tmp_path is not None:
            kw.setdefault("store_dir", str(tmp_path / "store"))
        return ServiceCore(ServiceConfig(**kw))

    def test_result_byte_identical_to_direct_call(self):
        core = self.make()
        core.start()
        try:
            status, envelope = core.submit(doc_for())
            assert status == 200
            assert json.dumps(envelope["result"], sort_keys=True) == \
                json.dumps(direct_payload(), sort_keys=True)
            assert envelope["schema"] == protocol.SCHEMA
            assert not envelope["cached"] and not envelope["coalesced"]
            assert envelope["degraded"] == []
        finally:
            assert core.drain(5.0)

    def test_replay_is_cached_and_identical(self):
        core = self.make()
        core.start()
        try:
            _, first = core.submit(doc_for())
            _, second = core.submit(doc_for())
            assert second["cached"]
            assert second["result"] == first["result"]
            assert core.pipeline_runs == 1
        finally:
            core.drain(5.0)

    def test_restart_replays_from_disk_store(self, tmp_path):
        core = self.make(tmp_path)
        core.start()
        _, first = core.submit(doc_for())
        assert core.drain(5.0)
        # a "restarted" service: fresh core, same store root
        core2 = self.make(tmp_path)
        core2.start()
        try:
            status, replay = core2.submit(doc_for())
            assert status == 200 and replay["cached"]
            assert replay["result"] == first["result"]
            assert core2.pipeline_runs == 0
        finally:
            core2.drain(5.0)

    def test_concurrent_identical_requests_run_once(self):
        """N identical concurrent requests -> exactly one pipeline
        execution, byte-identical payloads, N-1 coalesced responses."""
        n = 6
        core = self.make(workers=1)
        results = []

        def call():
            results.append(core.submit(doc_for()))

        threads = [threading.Thread(target=call) for _ in range(n)]
        for t in threads:
            t.start()
        # Workers are not running yet, so every thread must park on the
        # same coalesce entry (1 leader in the queue, n-1 followers)
        # before execution starts -- fully deterministic concurrency.
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            entry = core.coalescer._inflight.get(
                protocol.parse_request(doc_for()).key
            )
            if entry is not None and entry.followers == n - 1 \
                    and core.queue.depth == 1:
                break
            time.sleep(0.005)
        else:
            pytest.fail("requests never converged on one entry")
        core.start()
        for t in threads:
            t.join(timeout=30.0)
        try:
            assert len(results) == n
            assert all(status == 200 for status, _ in results)
            payloads = {
                json.dumps(env["result"], sort_keys=True)
                for _, env in results
            }
            assert len(payloads) == 1
            assert core.pipeline_runs == 1
            assert sum(env["coalesced"] for _, env in results) == n - 1
        finally:
            core.drain(5.0)

    def test_overload_sheds_typed_and_immediate(self):
        """With workers parked, distinct requests fill the bounded
        queue; the next one sheds with a typed 429 without blocking."""
        core = self.make(workers=1, queue_depth=2)
        fillers = [
            threading.Thread(
                target=core.submit, args=(doc_for(nreg=NREG + 8 * i),)
            )
            for i in range(2)
        ]
        for t in fillers:
            t.start()
        deadline = time.monotonic() + 10.0
        while core.queue.depth < 2 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert core.queue.depth == 2
        t0 = time.perf_counter()
        status, envelope = core.submit(doc_for(nreg=NREG + 99))
        assert time.perf_counter() - t0 < 1.0
        assert status == 429
        assert envelope["error"]["type"] == "ServiceOverloaded"
        assert envelope["error"]["retry_after"] > 0
        core.start()
        for t in fillers:
            t.join(timeout=30.0)
        assert core.drain(5.0)

    def test_zero_deadline_is_a_typed_504(self):
        core = self.make()
        core.start()
        try:
            status, envelope = core.submit(doc_for(deadline_s=0.0))
            assert status == 504
            assert envelope["error"]["type"] == "DeadlineExceeded"
            assert envelope["error"]["phase"]
        finally:
            core.drain(5.0)

    def test_malformed_and_oversized_rejected_before_analysis(self):
        core = self.make()  # workers never started: rejection is early
        status, envelope = core.submit({"bogus": 1})
        assert status == 400
        assert envelope["error"]["type"] == "RequestRejected"
        status, envelope = core.submit(doc_for(), body_bytes=10**9)
        assert status == 413
        assert envelope["error"]["reason"] == "too-large"
        for extra in (
            {"deadline_s": 1e12},
            {"deadline_s": float("inf")},
            {"priority": True},
        ):
            status, envelope = core.submit(doc_for(**extra))
            assert status == 400, envelope
            assert envelope["error"]["reason"] == "bad-field"
        assert core.pipeline_runs == 0

    def test_draining_sheds_new_requests(self):
        core = self.make()
        core.start()
        assert core.drain(5.0)
        status, envelope = core.submit(doc_for())
        assert status == 429
        assert envelope["error"]["type"] == "ServiceOverloaded"

    def test_open_verify_breaker_degrades_with_flag(self):
        core = self.make(breaker_threshold=1)
        core.start()
        try:
            core.breakers["verify"].failure("forced")
            status, envelope = core.submit(doc_for(verify=True))
            assert status == 200
            assert "verify:skipped" in envelope["degraded"]
            assert "verified" not in envelope["result"]
            # degraded payloads are never stored: a replay recomputes
            assert core.store.get(envelope["key"]) is None
        finally:
            core.drain(5.0)

    def test_verdict_rides_along(self):
        core = self.make()
        core.start()
        try:
            status, envelope = core.submit(doc_for(simulate=4))
            assert status == 200
            verdict = envelope["result"]["verdict"]
            assert verdict["cycles"] > 0
            assert len(verdict["threads"]) == 1
        finally:
            core.drain(5.0)

    def test_requests_metric_labels(self):
        with obs_metrics.scoped() as reg:
            core = self.make()
            core.start()
            try:
                core.submit(doc_for())
                core.submit({"bogus": 1})
            finally:
                core.drain(5.0)
            snap = reg.snapshot()
        assert snap["counters"]['service.requests{status="ok"}'] == 1
        assert snap["counters"][
            'service.requests{status="RequestRejected"}'] == 1


# ----------------------------------------------------------------------
# HTTP frontend + client.
# ----------------------------------------------------------------------
class TestHTTP:
    @pytest.fixture
    def server(self, tmp_path):
        server = ReproServer(
            ServiceConfig(
                workers=2,
                queue_depth=8,
                store_dir=str(tmp_path / "store"),
            ),
            port=0,
        )
        server.start()
        yield server
        server.drain_and_stop(5.0)

    def client_for(self, server, **kw):
        from repro.service.client import ServiceClient

        host, port = server.address
        return ServiceClient(host=host, port=port, **kw)

    def test_allocate_and_cached_replay(self, server):
        client = self.client_for(server)
        result = client.allocate([{"asm": MINI_KERNEL, "name": "k"}],
                                 nreg=NREG)
        assert json.dumps(result, sort_keys=True) == \
            json.dumps(direct_payload(), sort_keys=True)
        envelope = client.submit(doc_for())
        assert envelope["cached"]
        assert envelope["result"] == result

    def test_typed_errors_cross_the_wire(self, server):
        client = self.client_for(server)
        with pytest.raises(AllocationError):
            client.allocate([{"asm": FIG3_T1}], nreg=1)
        with pytest.raises(RequestRejected) as ei:
            client.submit({"bogus": 1})
        assert ei.value.reason == "bad-field"

    def test_oversized_body_is_413(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request(
                "POST", "/v1/allocate", body=b"x" * (300 * 1024),
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 413
        assert doc["error"]["reason"] == "too-large"

    def test_overloaded_carries_retry_after_header(self, server):
        # Force the 429 path deterministically via the drain shed.
        server.core.draining = True
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            body = json.dumps(doc_for()).encode()
            conn.request("POST", "/v1/allocate", body=body,
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
        finally:
            conn.close()
        server.core.draining = False
        assert resp.status == 429
        assert float(resp.headers["Retry-After"]) > 0

    def test_health_endpoints(self, server):
        client = self.client_for(server)
        assert client.health()["ok"]
        assert client.ready()
        status = client.status()
        assert status["schema"] == "repro.service.status/1"
        assert set(status["breakers"]) == {"store", "engine", "verify"}
        assert "service" in client.metrics_text().replace("_", ".")

    def test_unknown_endpoint_is_typed_404(self, server):
        import http.client

        host, port = server.address
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("GET", "/nope")
            resp = conn.getresponse()
            doc = json.loads(resp.read())
        finally:
            conn.close()
        assert resp.status == 404
        assert doc["error"]["type"] == "RequestRejected"

    def test_drain_flips_readiness_and_sheds(self, tmp_path):
        server = ReproServer(ServiceConfig(workers=1), port=0)
        server.start()
        client = self.client_for(server)
        assert client.ready()
        assert server.drain_and_stop(5.0)
        # the listener is gone after the drain completes
        with pytest.raises(OSError):
            client.health()


class TestClientRetry:
    def test_retries_honor_retry_after_then_succeed(self):
        from repro.service.client import ServiceClient

        sleeps = []
        overloaded = protocol.error_envelope(
            ServiceOverloaded("full", retry_after=0.07)
        )
        ok = protocol.ok_envelope("ab" * 32, {"sgr": 1})
        responses = [overloaded, overloaded, ok]
        client = ServiceClient(retries=3, backoff=0.01,
                               sleep=sleeps.append)
        client._request = lambda *a, **k: responses.pop(0)
        envelope = client.submit(doc_for())
        assert envelope["status"] == "ok"
        # retry_after (0.07) dominates the early backoff steps
        assert sleeps == [pytest.approx(0.07), pytest.approx(0.07)]

    def test_gives_up_after_retry_budget(self):
        from repro.service.client import ServiceClient

        overloaded = protocol.error_envelope(
            ServiceOverloaded("full", retry_after=0.0)
        )
        calls = []
        client = ServiceClient(retries=2, backoff=0.0,
                               sleep=lambda s: None)
        client._request = lambda *a, **k: calls.append(1) or overloaded
        with pytest.raises(ServiceOverloaded):
            client.submit(doc_for())
        assert len(calls) == 3  # initial + 2 retries

    def test_non_overload_errors_never_retry(self):
        from repro.service.client import ServiceClient

        rejected = protocol.error_envelope(RequestRejected("bad"))
        calls = []
        client = ServiceClient(retries=5, sleep=lambda s: None)
        client._request = lambda *a, **k: calls.append(1) or rejected
        with pytest.raises(RequestRejected):
            client.submit(doc_for())
        assert len(calls) == 1


# ----------------------------------------------------------------------
# The hypothesis property: FIFO within priority + shed exactly at the
# bound (satellite 3).
# ----------------------------------------------------------------------
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.sampled_from([0, 1, 2])),
        st.tuples(st.just("take"), st.just(None)),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(bound=st.integers(min_value=1, max_value=5), ops=_ops)
def test_admission_queue_property(bound, ops):
    """Against a reference model: offers shed exactly when the queue
    holds ``bound`` items, and takes drain in (priority, arrival)
    order -- FIFO within a priority, strict priority across them."""
    q = AdmissionQueue(bound=bound)
    model = []  # (priority, seq) of admitted-but-not-taken items
    seq = 0
    sheds = 0
    for op, arg in ops:
        if op == "offer":
            if len(model) >= bound:
                with pytest.raises(ServiceOverloaded):
                    q.offer(seq, priority=arg)
                sheds += 1
            else:
                q.offer(seq, priority=arg)
                model.append((arg, seq))
            seq += 1
        else:
            got = q.take(0)
            if model:
                expect = min(model)
                assert got == expect[1]
                model.remove(expect)
            else:
                assert got is None
    assert q.shed_count == sheds
    assert q.depth == len(model)
    # drain what's left: still perfectly ordered
    for expect in sorted(model):
        assert q.take(0) == expect[1]
