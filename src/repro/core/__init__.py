"""DGSF: the paper's contribution.

* :mod:`~repro.core.config` — deployment configuration (GPU count, sharing
  level, scheduling policy, optimization flags).
* :mod:`~repro.core.classify` — the remotable / localizable / special
  taxonomy of interposed APIs (§V-B).
* :mod:`~repro.core.guest` — the guest library: interposition, remoting,
  descriptor pooling, call batching, local emulation (§V-B, §V-C).
* :mod:`~repro.core.api_server` — API servers with pre-created contexts
  and handle pools; restricted-API simulation (§V-A, §V-C).
* :mod:`~repro.core.monitor` — GPU-server monitor: statistics, the
  function queue + charge ledger, GPU assignment policies, imbalance
  detection (§V-A).
* :mod:`~repro.core.scheduler` — pluggable dispatch disciplines: FCFS,
  SFF, aged SFF (starvation-bounded), MQFQ-style fair queueing.
* :mod:`~repro.core.migration` — VA-preserving live migration (§V-D).
* :mod:`~repro.core.gpu_server` — manager + assembly of one GPU server.
* :mod:`~repro.core.deployment` — end-to-end wiring: serverless platform
  + network + GPU server + guest libraries.
"""

from repro.core.config import DgsfConfig, OptimizationFlags
from repro.core.classify import ApiClass, classify, LOCALIZABLE, BATCHABLE
from repro.core.policies import Policy, BestFit, WorstFit, make_policy
from repro.core.backend import GpuBackend
from repro.core.handlepool import HandlePools
from repro.core.api_server import ApiServer, ApiServerDown
from repro.core.monitor import Monitor, GpuRequest
from repro.core.scheduler import DISCIPLINES, DispatchScheduler, make_scheduler, size_class
from repro.core.gpu_server import GpuServer
from repro.core.guest import GuestLibrary, GuestGpuBundle, GuestRpcError
from repro.core.migration import migrate_api_server, MigrationRecord
from repro.core.deployment import DgsfDeployment, NativeGpuProvider
from repro.core.faults import FaultPlan, FaultDirector, ServerFaultInjector
from repro.core.audit import (
    AuditError,
    AuditReport,
    AuditViolation,
    audit_deployment,
    audit_gpu_server,
)
from repro.core.stats import (
    summarize_invocations,
    summarize_outcomes,
    OutcomeSummary,
    WorkloadStats,
)

__all__ = [
    "DgsfConfig",
    "OptimizationFlags",
    "ApiClass",
    "classify",
    "LOCALIZABLE",
    "BATCHABLE",
    "Policy",
    "BestFit",
    "WorstFit",
    "make_policy",
    "GpuBackend",
    "HandlePools",
    "ApiServer",
    "ApiServerDown",
    "Monitor",
    "GpuRequest",
    "DISCIPLINES",
    "DispatchScheduler",
    "make_scheduler",
    "size_class",
    "GpuServer",
    "GuestLibrary",
    "GuestGpuBundle",
    "GuestRpcError",
    "migrate_api_server",
    "MigrationRecord",
    "DgsfDeployment",
    "NativeGpuProvider",
    "FaultPlan",
    "FaultDirector",
    "ServerFaultInjector",
    "AuditError",
    "AuditReport",
    "AuditViolation",
    "audit_deployment",
    "audit_gpu_server",
    "summarize_invocations",
    "summarize_outcomes",
    "OutcomeSummary",
    "WorkloadStats",
]
