"""repro.dispatch — the distributed CoverSpec dispatcher.

Fan a batch of :class:`~repro.api.spec.CoverSpec` jobs out to a pool of
workers over a pluggable transport, and get back the same deterministic
:class:`~repro.api.result.Result` envelopes an in-process
:func:`repro.api.solve` would have produced — byte-identical, validated,
cache-written-through, in the caller's order::

    from repro.api import CoverSpec
    from repro.dispatch import dispatch_batch

    specs = [CoverSpec.for_ring(n, backend="exact", use_hints=False)
             for n in range(4, 12)]
    report = dispatch_batch(specs, transport="subprocess", workers=4,
                            cache="~/.cache/repro")
    [r.num_blocks for r in report.results]       # ρ(4)..ρ(11)
    report.summary()                             # retries, deaths, cache hits

Layers:

* :mod:`~repro.dispatch.base` — the :class:`Transport` contract,
  :class:`Job`, and the shared retry-with-exclusion queue runner;
* :mod:`~repro.dispatch.inprocess` /
  :mod:`~repro.dispatch.subproc` /
  :mod:`~repro.dispatch.spool` — the three stock transports;
* :mod:`~repro.dispatch.worker` — the worker-side loops behind
  ``python -m repro worker`` (stdio protocol, spool polling, heartbeat
  leases);
* :mod:`~repro.dispatch.faults` — the seeded fault-injection harness
  (:class:`FaultPlan`) the chaos suite and CI drive workers with;
* :mod:`~repro.dispatch.dispatcher` — :func:`dispatch_batch`,
  scheduling, cache resume, validation, graceful degradation,
  deterministic merge.

``repro.api.solve_batch(specs, transport=...)`` is the friendly front
door; this package is the machinery.
"""

from __future__ import annotations

from ..api.checkpoints import parse_preempt_after
from .base import (
    DispatchError,
    EnvelopeError,
    Job,
    JobError,
    RetryPolicy,
    Transport,
    TransportOutcome,
    WorkerDeath,
    WorkerPreempted,
)
from .dispatcher import (
    DEGRADE_POLICIES,
    TRANSPORTS,
    DispatchReport,
    cost_weight,
    dispatch_batch,
    make_transport,
)
from .faults import (
    FAULT_EXIT_CODE,
    FAULT_PLAN_ENV,
    Fault,
    FaultInjector,
    FaultPlan,
)
from .inprocess import InProcessTransport
from .spool import SpoolTransport
from .subproc import SubprocessTransport
from .worker import spool_worker_loop, stdio_worker_loop

__all__ = [
    "DEGRADE_POLICIES",
    "DispatchError",
    "DispatchReport",
    "EnvelopeError",
    "FAULT_EXIT_CODE",
    "FAULT_PLAN_ENV",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "InProcessTransport",
    "Job",
    "JobError",
    "RetryPolicy",
    "SpoolTransport",
    "SubprocessTransport",
    "TRANSPORTS",
    "Transport",
    "TransportOutcome",
    "WorkerDeath",
    "WorkerPreempted",
    "cost_weight",
    "dispatch_batch",
    "make_transport",
    "parse_preempt_after",
    "spool_worker_loop",
    "stdio_worker_loop",
]
