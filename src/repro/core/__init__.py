"""The paper's contribution: multi-threaded register allocation.

* :mod:`repro.core.analysis` -- per-thread analysis bundle (liveness, NSRs,
  interference graphs, slot/flow-edge model of live ranges).
* :mod:`repro.core.bounds` -- ``MinPR``/``MinR``/``MaxPR``/``MaxR``
  estimation (paper section 5).
* :mod:`repro.core.context` -- allocation contexts: live-range pieces with
  colors; the unit the intra-thread allocator transforms.
* :mod:`repro.core.intra` -- the intra-thread allocator: ``Reduce-PR`` and
  ``Reduce-SR`` invocations via recoloring and live-range splitting
  (paper section 7).
* :mod:`repro.core.inter` -- the greedy inter-thread allocator
  (paper section 6, Figure 8).
* :mod:`repro.core.sra` -- the symmetric special case (paper section 8).
* :mod:`repro.core.assign` -- color -> physical-register assignment.
* :mod:`repro.core.rewrite` -- materialize an allocation into executable
  code with physical registers and inserted moves.
* :mod:`repro.core.pipeline` -- the one-call public API.
"""

from repro.core.analysis import ThreadAnalysis, analyze_thread
from repro.core.bounds import Bounds, estimate_bounds
from repro.core.context import AllocContext, Piece, initial_context
from repro.core.inter import InterThreadResult, allocate_threads
from repro.core.intra import IntraAllocator
from repro.core.sra import allocate_symmetric
from repro.core.assign import RegisterAssignment, assign_physical
from repro.core.rewrite import rewrite_program
from repro.core.pipeline import AllocationOutcome, allocate_programs

__all__ = [
    "ThreadAnalysis",
    "analyze_thread",
    "Bounds",
    "estimate_bounds",
    "Piece",
    "AllocContext",
    "initial_context",
    "IntraAllocator",
    "InterThreadResult",
    "allocate_threads",
    "allocate_symmetric",
    "RegisterAssignment",
    "assign_physical",
    "rewrite_program",
    "AllocationOutcome",
    "allocate_programs",
]
