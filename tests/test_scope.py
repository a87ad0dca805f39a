"""The run context: the emitter, metrics registry, fault plan and analysis
cache are context variables that ``repro.scope.bind`` sets for a block,
so what one thread binds never reaches another."""

import threading
from contextvars import ContextVar

import pytest

from repro.core import cache
from repro.core.pipeline import allocate_programs
from repro.obs import events, metrics
from repro.resilience import faults
from repro.resilience.faults import FaultSpec
from repro.scope import bind
from repro.sim.engine import select_engine
from repro.suite.registry import load

WAIT = 30.0


def started(target):
    """``target`` running on a fresh thread, whose context starts empty."""
    thread = threading.Thread(target=target)
    thread.start()
    return thread


def joined(thread):
    thread.join(WAIT)
    assert not thread.is_alive()


def test_bind_nests_and_restores_on_error():
    var = ContextVar("v", default="default")
    with bind(var, "outer") as value:
        assert value == "outer"
        with pytest.raises(RuntimeError):
            with bind(var, "inner"):
                assert var.get() == "inner"
                raise RuntimeError("boom")
        assert var.get() == "outer"
    assert var.get() == "default"


def test_a_thread_that_binds_nothing_sees_the_process_defaults():
    seen = {}

    def look():
        seen["emitter"] = events.get_emitter()
        seen["registry"] = metrics.registry()
        seen["plan"] = faults.active()
        seen["cache"] = cache.get_cache()

    defaults = {
        "emitter": events.NULL,
        "registry": metrics.registry(),
        "plan": None,
        "cache": cache.get_cache(),
    }
    with events.capture(), metrics.scoped(), cache.scoped(), \
            faults.inject(FaultSpec("sim.stuck")):
        joined(started(look))
    assert seen == defaults


def test_a_suspension_closed_on_another_thread_keeps_this_plan_armed():
    # The other thread suspends before this block arms its plan and
    # resumes inside it.  A process-wide plan came back disarmed here.
    opened, inside, closed = (threading.Event() for _ in range(3))

    def suspender():
        with faults.suspended():
            opened.set()
            inside.wait(WAIT)
        closed.set()

    thread = started(suspender)
    assert opened.wait(WAIT)
    with faults.inject(FaultSpec("sim.stuck")) as plan:
        inside.set()
        assert closed.wait(WAIT)
        seen = faults.active()
    joined(thread)
    assert seen is plan


def test_a_suspension_outliving_a_block_does_not_rearm_its_plan():
    # The other thread suspends inside this block and resumes after it.
    # A process-wide plan came back armed here, after its block ended.
    armed, opened, ended, closed = (threading.Event() for _ in range(4))

    def suspender():
        armed.wait(WAIT)
        with faults.suspended():
            opened.set()
            ended.wait(WAIT)
        closed.set()

    thread = started(suspender)
    with faults.inject(FaultSpec("sim.stuck")):
        armed.set()
        assert opened.wait(WAIT)
    ended.set()
    assert closed.wait(WAIT)
    joined(thread)
    assert faults.active() is None


def test_a_capture_sees_none_of_another_threads_work():
    seen = {}

    def work():
        allocate_programs([load("crc"), load("md5")], nreg=128)
        seen["engine"] = select_engine("auto")

    with events.capture() as em:
        joined(started(work))
    assert em.events == []
    # An open capture makes `auto` pick the reference engine; the other
    # thread has none.
    assert seen["engine"] == "fast"
