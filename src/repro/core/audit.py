"""Invariant auditor for DGSF deployments.

The fault-injection layer exercises code paths (crashes, re-queues,
re-bring-up) where the scheduler's byte accounting and the device memory
model can silently drift apart.  This module checks, at any quiescent
point:

* **committed-vs-charged consistency** — the monitor's per-device
  ``committed`` bytes equal the sum of the charges its ledger
  (:meth:`Monitor.charges`) holds against that device, and every charge
  belongs to a live (or recovering) server,
* **device memory accounting** — ``mem_used`` never exceeds capacity and
  always covers the bytes of live tracked allocations (the rest is
  reserved static footprint: contexts, handles),
* **demand-zero truthfulness** — a live allocation flagged demand-zero
  holds no nonzero byte (a writer that bypassed the flag would let a
  kernel payload be skipped wrongly),
* **no leaked reservations** — at end state, no server is still busy or
  reserved (unless mid-recovery), no request is stuck in flight, and no
  physical allocations or charges survive the last release.

``audit_deployment``/``audit_gpu_server`` return an :class:`AuditReport`;
test fixtures call :meth:`AuditReport.raise_if_failed` so any violation
fails the test that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError

__all__ = ["AuditError", "AuditViolation", "AuditReport",
           "audit_gpu_server", "audit_deployment"]


class AuditError(ReproError):
    """At least one deployment invariant does not hold."""


@dataclass(frozen=True)
class AuditViolation:
    kind: str
    detail: str


@dataclass
class AuditReport:
    violations: list[AuditViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, detail: str) -> None:
        self.violations.append(AuditViolation(kind, detail))

    def raise_if_failed(self) -> None:
        if self.violations:
            lines = "\n".join(f"  [{v.kind}] {v.detail}" for v in self.violations)
            raise AuditError(f"{len(self.violations)} invariant violation(s):\n{lines}")

    def merge(self, other: "AuditReport") -> "AuditReport":
        self.violations.extend(other.violations)
        return self


def audit_gpu_server(gpu_server, end_state: bool = False,
                     check_schedulable: bool = False) -> AuditReport:
    """Audit one GPU server's scheduler/memory invariants.

    ``end_state=True`` additionally requires quiescence: no busy servers,
    no queued or in-flight requests, no leaked charges or allocations.
    ``check_schedulable=True`` requires every GPU to have at least one
    grantable home server again (crash recovery completed).
    """
    report = AuditReport()
    monitor = gpu_server.monitor
    servers = gpu_server.api_servers

    # 1. committed == sum of charges, per device; charges map to real servers.
    by_id = {s.server_id: s for s in servers}
    charges = monitor.charges()
    charged_sum: dict[int, int] = {d.device_id: 0 for d in gpu_server.devices}
    for sid, (device_id, charged_bytes) in charges.items():
        server = by_id.get(sid)
        if server is None:
            report.add("charge", f"charge for unknown server {sid}")
            continue
        if charged_bytes <= 0:
            report.add(
                "charge",
                f"server {sid} charged against GPU {device_id} "
                f"with non-positive bytes ({charged_bytes})",
            )
        if device_id not in charged_sum:
            report.add("charge", f"server {sid} charged against unknown GPU {device_id}")
            continue
        charged_sum[device_id] += charged_bytes
    for device_id, committed in monitor.committed.items():
        if committed < 0:
            report.add("committed", f"GPU {device_id} committed is negative ({committed})")
        if committed != charged_sum.get(device_id, 0):
            report.add(
                "committed",
                f"GPU {device_id} committed={committed} but per-server "
                f"charges sum to {charged_sum.get(device_id, 0)}",
            )

    # 2. charge <-> reservation coherence (dead/recovering servers exempt:
    #    the monitor intentionally keeps them fenced while recovery runs).
    for server in servers:
        charged = server.server_id in charges
        if server.dead or server.recovering:
            continue
        if charged and not (server.reserved or server.busy):
            report.add(
                "reservation",
                f"server {server.server_id} is charged but neither reserved nor busy",
            )

    # 3. device memory accounting.
    for device in gpu_server.devices:
        live = sum(a.size for a in device._allocations)
        if device.mem_used > device.total_mem:
            report.add(
                "memory",
                f"GPU {device.device_id} mem_used {device.mem_used} exceeds "
                f"capacity {device.total_mem}",
            )
        if device.mem_used < live:
            report.add(
                "memory",
                f"GPU {device.device_id} mem_used {device.mem_used} below "
                f"live allocation bytes {live}",
            )
        if device.mem_used < 0:
            report.add("memory", f"GPU {device.device_id} mem_used negative")
        for alloc in sorted(device._allocations, key=lambda a: a.handle):
            # an unmaterialised window is zeros by construction; never
            # materialise one just to look at it
            if alloc.demand_zero and alloc.materialized and alloc.data.any():
                report.add(
                    "demand-zero",
                    f"GPU {device.device_id} allocation #{alloc.handle} is "
                    "flagged demand-zero but holds nonzero bytes",
                )

    if end_state:
        for server in servers:
            if server.busy:
                report.add("end-state", f"server {server.server_id} still busy")
            if server.reserved and not (server.dead or server.recovering):
                report.add("end-state", f"server {server.server_id} still reserved")
        if monitor.queue_length:
            report.add("end-state", f"{monitor.queue_length} request(s) still queued")
        if monitor._inflight:
            report.add(
                "end-state",
                f"request(s) still in flight on servers {sorted(monitor._inflight)}",
            )
        if monitor._pending_release:
            report.add(
                "end-state",
                f"orphaned leases never released: {sorted(monitor._pending_release)}",
            )
        # With every session ended, only static footprints may hold memory.
        for device in gpu_server.devices:
            if device._allocations:
                report.add(
                    "leak",
                    f"GPU {device.device_id} still tracks "
                    f"{len(device._allocations)} physical allocation(s)",
                )
        for device_id, committed in monitor.committed.items():
            if committed != 0:
                report.add(
                    "leak", f"GPU {device_id} still has {committed} committed bytes"
                )

    if check_schedulable:
        for device in gpu_server.devices:
            if not any(
                s.home_device_id == device.device_id and s.schedulable
                for s in servers
            ):
                report.add(
                    "schedulable",
                    f"GPU {device.device_id} has no grantable home API server",
                )

    return report


def audit_deployment(deployment, end_state: bool = False,
                     check_schedulable: bool = False) -> AuditReport:
    """Audit every GPU server of a DGSF deployment."""
    report = AuditReport()
    for gpu_server in deployment.gpu_servers:
        report.merge(
            audit_gpu_server(
                gpu_server, end_state=end_state, check_schedulable=check_schedulable
            )
        )
    return report
