"""Hosts, the network fabric, and socket-like connections."""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core import Environment, Event
from repro.sim.resources import Store
from repro.simnet.link import NIC, NetworkProfile
from repro.simnet.serialization import payload_size, MESSAGE_HEADER_BYTES

__all__ = ["Network", "Host", "Connection", "Endpoint"]

#: payload type -> interned "xfer:<Type>" span name
_XFER_NAMES: dict[type, str] = {}


def _xfer_name(kind: type) -> str:
    name = _XFER_NAMES[kind] = f"xfer:{kind.__name__}"
    return name


class Host:
    """A machine on the network, owning one egress NIC.

    All connections originating at this host share the NIC's bandwidth
    (FIFO serialization), which is how a burst of concurrent function
    downloads contends on the function server's 10 Gbps interface.
    """

    def __init__(self, network: "Network", name: str, bandwidth_bps: float):
        self.network = network
        self.name = name
        self.nic = NIC(network.env, bandwidth_bps)

    def __repr__(self) -> str:
        return f"<Host {self.name}>"


class Connection:
    """A bidirectional, FIFO, reliable byte-counted channel between hosts."""

    def __init__(self, network: "Network", a: Host, b: Host):
        self.network = network
        self.a = Endpoint(self, a, b)
        self.b = Endpoint(self, b, a)
        self.a._peer = self.b
        self.b._peer = self.a
        #: optional :class:`~repro.simnet.faults.LinkFaultInjector` applied
        #: to messages in both directions
        self.faults = None
        #: optional :class:`repro.obs.Tracer`: when set, every message
        #: transfer is recorded as a "net" span (bytes, route, drops)
        self.tracer = None
        #: track label for trace export (set by whoever owns the connection)
        self.label = ""
        #: optional ``(trace_id, parent_span_id)``: when set, "net" spans
        #: join the owning invocation's trace so per-invocation span trees
        #: (and the critical-path report) see wire time
        self.trace_ctx: Optional[tuple] = None

    @property
    def endpoints(self) -> tuple["Endpoint", "Endpoint"]:
        return (self.a, self.b)


class Endpoint:
    """One side of a :class:`Connection`.

    ``send`` is non-blocking (the NIC model charges wire time via delivery
    delay); ``recv`` returns an event that fires with the next (optionally
    filtered) message.
    """

    def __init__(self, connection: Connection, local: Host, remote: Host):
        self.connection = connection
        self.local = local
        self.remote = remote
        self.inbox: Store = Store(connection.network.env)
        self._peer: Optional["Endpoint"] = None
        self._last_delivery = 0.0
        #: messages sent / received counters (for optimization accounting)
        self.messages_sent = 0
        self.bytes_out = 0
        # per-message constants, built once: the delivery callback and the
        # trace track used when the connection carries no label
        self._deliver_cb = self._deliver
        self._tid = f"{local.name}->{remote.name}"

    @property
    def env(self) -> Environment:
        return self.connection.network.env

    def send(self, payload: Any, extra_bytes: int = 0) -> float:
        """Transmit ``payload`` to the peer; returns the delivery time.

        ``extra_bytes`` lets callers charge for bulk data that rides along
        with the structured payload (e.g. a memcpy's buffer) without
        materializing it.
        """
        assert self._peer is not None
        connection = self.connection
        network = connection.network
        env = network.env
        profile = network.profile_for(self.local, self.remote)
        rng = network.rng
        size = MESSAGE_HEADER_BYTES + payload_size(payload) + max(0, int(extra_bytes))
        factor = profile.sample_bandwidth_factor(rng)
        if factor <= 0:
            raise ConfigurationError("bandwidth factor must be positive")
        # Derated paths behave like a slower NIC: inflate occupied wire
        # time, not the byte count.
        serialize_delay = self.local.nic.transmit(size, int(round(size / factor)))
        latency = profile.sample_latency(rng)
        faults = connection.faults
        now = env.now
        if faults is not None:
            latency += faults.delay_spike(now)
        deliver_at = now + serialize_delay + latency
        # Enforce per-direction FIFO despite latency jitter.
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        self.messages_sent += 1
        self.bytes_out += size
        lost = faults is not None and faults.drops(now)
        tracer = connection.tracer
        if tracer is not None:
            trace_id, parent_id = connection.trace_ctx or (None, None)
            kind = type(payload)
            tracer.complete(
                _XFER_NAMES.get(kind) or _xfer_name(kind), now, deliver_at,
                cat="net", pid="net", tid=connection.label or self._tid,
                trace_id=trace_id, parent_id=parent_id,
                bytes=size, src=self.local.name, dst=self.remote.name,
                **({"dropped": True} if lost else {}),
            )
        if lost:
            # Transmitted (wire time charged above) but lost in flight.
            return deliver_at
        # the delivery timeout carries the payload as its value
        env.timeout(deliver_at - now, payload).callbacks.append(self._deliver_cb)
        return deliver_at

    def _deliver(self, event: Event) -> None:
        self._peer.inbox.put(event._value)

    def recv(self, filter: Optional[Callable[[Any], bool]] = None) -> Event:
        """Event firing with the next message (matching ``filter`` if given)."""
        return self.inbox.get(filter)


class Network:
    """The fabric: hosts, latency profiles, and an optional jitter RNG."""

    def __init__(
        self,
        env: Environment,
        default_profile: Optional[NetworkProfile] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        self.env = env
        self.default_profile = default_profile or NetworkProfile()
        self.rng = rng
        self._hosts: dict[str, Host] = {}
        self._profiles: dict[tuple[str, str], NetworkProfile] = {}

    def add_host(self, name: str, bandwidth_bps: float = 10e9) -> Host:
        if name in self._hosts:
            raise ConfigurationError(f"duplicate host {name!r}")
        host = Host(self, name, bandwidth_bps)
        self._hosts[name] = host
        return host

    def host(self, name: str) -> Host:
        return self._hosts[name]

    def set_profile(self, src: str, dst: str, profile: NetworkProfile) -> None:
        """Set the path profile for src→dst (directional)."""
        self._profiles[(src, dst)] = profile

    def profile_for(self, src: Host, dst: Host) -> NetworkProfile:
        return self._profiles.get((src.name, dst.name), self.default_profile)

    def connect(self, a: Host | str, b: Host | str) -> Connection:
        if isinstance(a, str):
            a = self.host(a)
        if isinstance(b, str):
            b = self.host(b)
        return Connection(self, a, b)
