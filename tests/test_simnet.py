"""Unit tests for the network model (NIC, hosts, connections, RPC)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim import Environment
from repro.simnet import (
    NIC,
    LinkFaultInjector,
    Network,
    NetworkProfile,
    RpcClient,
    RpcReply,
    RpcRequest,
    RpcServer,
    RpcError,
    RpcTimeout,
    payload_size,
    MESSAGE_HEADER_BYTES,
)


# --- serialization -----------------------------------------------------------

def test_payload_size_scalars_and_strings():
    assert payload_size(None) == 1
    assert payload_size(7) == 8
    assert payload_size(3.14) == 8
    assert payload_size("abcd") == 8 + 4


def test_payload_size_arrays_and_containers():
    arr = np.zeros(100, dtype=np.float64)
    assert payload_size(arr) == 8 + 800
    assert payload_size([1, 2, 3]) == 8 + 24
    assert payload_size({"k": 1}) == 8 + (8 + 1) + 8


def test_payload_size_nested():
    inner = [np.zeros(10, dtype=np.uint8)]
    assert payload_size(inner) == 8 + (8 + 10)


def _reference_payload_size(value):
    """The plain isinstance walk that payload_size's fast path must match."""
    if value is None:
        return 1
    if isinstance(value, (bool, int, float)):
        return 8
    if isinstance(value, str):
        return 8 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray, memoryview)):
        return 8 + len(value)
    if isinstance(value, np.ndarray):
        return 8 + int(value.nbytes)
    if isinstance(value, np.generic):
        return 8
    if isinstance(value, dict):
        return 8 + sum(_reference_payload_size(k) + _reference_payload_size(v)
                       for k, v in value.items())
    if isinstance(value, (list, tuple, set, frozenset)):
        return 8 + sum(_reference_payload_size(v) for v in value)
    # the RPC messages' layouts, spelled out field by field
    if isinstance(value, RpcRequest):
        size = 16 + _reference_payload_size(value.method)
        size += _reference_payload_size(value.args)
        if value.kwargs:
            size += _reference_payload_size(value.kwargs)
        return size + sum(_reference_payload_size(r) for r in value.batch or ())
    if isinstance(value, RpcReply):
        size = 16 + _reference_payload_size(value.value)
        return size + (_reference_payload_size(value.error) if value.error else 0)
    wire = getattr(value, "wire_size", None)
    if wire is not None:
        return int(wire() if callable(wire) else wire)
    return 32


def test_payload_size_fast_path_matches_the_isinstance_walk():
    from collections import namedtuple

    class Msg:
        def wire_size(self):
            return 123

    class Desc:
        wire_size = 77

    class MyInt(int):
        pass

    class MyList(list):
        pass

    Point = namedtuple("Point", "x y")
    corpus = [
        None, True, False, 0, -5, 2**70, 1.5, float("nan"), "", "héllo",
        b"abc", bytearray(b"xy"), memoryview(b"1234"),
        np.float64(2.0), np.int32(7), np.bool_(True),
        np.zeros((3, 4), dtype=np.float32), np.zeros(0, dtype=np.uint8),
        (), [], {}, set(), frozenset({1, 2}),
        (1, 2.0, None, True, "s", (3, (4, (5,)))),
        [np.int32(1), np.float64(2.0), [None, b"z"]],
        {"a": 1, 2: (3, 4), None: {"nested": [1.0, "x"]}, True: np.zeros(2)},
        (Msg(), Desc(), object()), Msg(), Desc(), object(),
        MyInt(3), MyList([1, 2, MyInt(4)]), Point(1, (2, 3)),
        ((1, 1, 1), (256, 1, 1), (0.5, 10, 20, 30, 100, 16, 16), 0, None),
    ]
    for value in corpus:
        assert payload_size(value) == _reference_payload_size(value), value


def test_rpc_message_sizes_match_the_isinstance_walk():
    sub = RpcRequest(0, "cudaMemcpyAsync", (4096, 7, None), extra_bytes=64)
    corpus = [
        RpcRequest(1, "cudaMalloc", (1024,)),
        RpcRequest(2, "cudaMalloc", (2048,)),  # the method size is cached
        RpcRequest(3, "cudaLaunchKernel", (1, 2), kwargs={"stream": 0, "sync": True}),
        RpcRequest(4, "__batch__", batch=[sub, RpcRequest(0, "cudaMalloc", (8,))]),
        RpcRequest(5, "héllo", ((1, (2.0, "s")), [np.zeros(3)], {"k": (None,)})),
        RpcReply(6, value=(1, "ok", np.zeros(4, dtype=np.uint8))),
        RpcReply(7),
        RpcReply(8, error="boom"),
        (RpcRequest(9, "x"), [RpcReply(10, value=3)]),
    ]
    for value in corpus:
        assert payload_size(value) == _reference_payload_size(value), value


# --- NIC ---------------------------------------------------------------------

def test_nic_serialization_is_fifo():
    env = Environment()
    nic = NIC(env, bandwidth_bps=8e6)  # 1 MB/s
    d1 = nic.transmit(1_000_000)  # 1 s on the wire
    d2 = nic.transmit(1_000_000)  # queued behind the first
    assert d1 == pytest.approx(1.0)
    assert d2 == pytest.approx(2.0)


def test_nic_idles_between_sends():
    env = Environment()
    nic = NIC(env, bandwidth_bps=8e6)
    nic.transmit(1_000_000)
    env._now = 5.0  # simulate idle time passing
    assert nic.transmit(1_000_000) == pytest.approx(1.0)


def test_nic_rejects_bad_args():
    env = Environment()
    with pytest.raises(ValueError):
        NIC(env, bandwidth_bps=0)
    nic = NIC(env, bandwidth_bps=1e9)
    with pytest.raises(ValueError):
        nic.transmit(-1)


# --- network / connection ----------------------------------------------------

def make_pair(latency=1e-3, bandwidth=10e9):
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=latency))
    a = net.add_host("fn", bandwidth_bps=bandwidth)
    b = net.add_host("gpu", bandwidth_bps=bandwidth)
    conn = net.connect(a, b)
    return env, conn


def test_message_delivery_includes_latency():
    env, conn = make_pair(latency=0.5)
    got = []

    def receiver(env):
        msg = yield conn.b.recv()
        got.append((msg, env.now))

    def sender(env):
        conn.a.send("hello")
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got[0][0] == "hello"
    assert got[0][1] >= 0.5


def test_large_transfer_is_bandwidth_bound():
    env, conn = make_pair(latency=0.0, bandwidth=8e9)  # 1 GB/s
    got = []

    def receiver(env):
        yield conn.b.recv()
        got.append(env.now)

    def sender(env):
        conn.a.send("blob", extra_bytes=1_000_000_000)
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got[0] == pytest.approx(1.0, rel=1e-3)


def test_per_direction_fifo_order():
    env, conn = make_pair()
    got = []

    def receiver(env):
        for _ in range(3):
            msg = yield conn.b.recv()
            got.append(msg)

    def sender(env):
        for i in range(3):
            conn.a.send(i)
        yield env.timeout(0)

    env.process(receiver(env))
    env.process(sender(env))
    env.run()
    assert got == [0, 1, 2]


def test_bidirectional_traffic():
    env, conn = make_pair()
    log = []

    def side_a(env):
        conn.a.send("ping")
        msg = yield conn.a.recv()
        log.append(msg)

    def side_b(env):
        msg = yield conn.b.recv()
        conn.b.send(msg + "-pong")

    env.process(side_a(env))
    env.process(side_b(env))
    env.run()
    assert log == ["ping-pong"]


def test_duplicate_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("x")
    with pytest.raises(ConfigurationError):
        net.add_host("x")


def test_directional_profile_override():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    slow = NetworkProfile(latency_s=1.0)
    net.set_profile("a", "b", slow)
    conn = net.connect("a", "b")
    times = {}

    def fwd(env):
        conn.a.send("x")
        yield env.timeout(0)

    def recv_b(env):
        yield conn.b.recv()
        times["fwd"] = env.now
        conn.b.send("y")

    def recv_a(env):
        yield conn.a.recv()
        times["rev"] = env.now

    env.process(fwd(env))
    env.process(recv_b(env))
    env.process(recv_a(env))
    env.run()
    assert times["fwd"] >= 1.0
    # reverse direction uses the default (fast) profile
    assert times["rev"] - times["fwd"] < 0.1


def test_bandwidth_derating_slows_transfers():
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=0.0, bandwidth_factor=0.5))
    a = net.add_host("a", bandwidth_bps=8e9)
    b = net.add_host("b", bandwidth_bps=8e9)
    conn = net.connect(a, b)
    got = []

    def receiver(env):
        yield conn.b.recv()
        got.append(env.now)

    conn.a.send("blob", extra_bytes=1_000_000_000)
    env.process(receiver(env))
    env.run()
    # 1 GB at an effective 0.5 GB/s → ~2 s
    assert got[0] == pytest.approx(2.0, rel=1e-2)


def test_derated_path_counts_real_bytes_and_charges_derated_wire_time():
    env = Environment()
    net = Network(env, default_profile=NetworkProfile(latency_s=0.0, bandwidth_factor=0.25))
    a = net.add_host("a", bandwidth_bps=8e6)  # 1 MB/s
    b = net.add_host("b", bandwidth_bps=8e6)
    conn = net.connect(a, b)
    got = []

    def receiver(env):
        yield conn.b.recv()
        got.append(env.now)

    deliver_at = conn.a.send("x", extra_bytes=1000)
    env.process(receiver(env))
    env.run()
    size = MESSAGE_HEADER_BYTES + payload_size("x") + 1000
    assert size == 1073
    assert conn.a.bytes_out == size
    assert a.nic.bytes_sent == conn.a.bytes_out
    # the wire is occupied as if 4x the bytes went out at full speed
    assert got == [deliver_at]
    assert deliver_at == pytest.approx(4292 / 1e6)


def test_jitter_requires_rng_and_is_reproducible():
    profile = NetworkProfile(latency_s=0.001, jitter_stddev=0.01)
    assert profile.sample_latency(None) == 0.001
    rng1 = np.random.default_rng(1)
    rng2 = np.random.default_rng(1)
    assert profile.sample_latency(rng1) == profile.sample_latency(rng2)
    assert profile.sample_latency(rng1) >= 0.001


# --- RPC ---------------------------------------------------------------------

def make_rpc(handler, latency=1e-4):
    env, conn = make_pair(latency=latency)
    client = RpcClient(conn.a)
    server = RpcServer(conn.b, handler)
    server.start()
    return env, client, server


def test_rpc_roundtrip():
    def handler(req):
        yield req.msg_id and iter(())  # no-op placeholder
        return ("echo", req.method, req.args)
        yield  # pragma: no cover

    def handler_gen(req):
        if False:
            yield
        return ("echo", req.method, req.args)

    env, client, server = make_rpc(handler_gen)

    def caller(env):
        result = yield from client.call("cudaMalloc", 1024)
        return result

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == ("echo", "cudaMalloc", (1024,))
    assert server.requests_handled == 1


def test_rpc_handler_consumes_sim_time():
    def handler(req):
        yield req_env.timeout(2.0)
        return "slow-done"

    env, client, server = make_rpc(handler)
    req_env = env

    def caller(env):
        result = yield from client.call("work")
        return (result, env.now)

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value[0] == "slow-done"
    assert p.value[1] >= 2.0


def test_rpc_remote_error_propagates():
    def handler(req):
        if False:
            yield
        raise ValueError("device out of memory")

    env, client, _ = make_rpc(handler)

    def caller(env):
        try:
            yield from client.call("cudaMalloc", 1 << 60)
        except RpcError as exc:
            return str(exc)

    p = env.process(caller(env))
    env.run(until=p)
    assert "device out of memory" in p.value


def test_rpc_oneway_does_not_wait():
    handled = []

    def handler(req):
        if False:
            yield
        handled.append(req.method)
        return None

    env, client, _ = make_rpc(handler)

    def caller(env):
        client.call_oneway("enqueue", 1)
        done_at = env.now  # returns immediately
        yield env.timeout(1.0)
        return done_at

    p = env.process(caller(env))
    env.run()
    assert p.value == 0.0
    assert handled == ["enqueue"]


def test_rpc_batch_amortizes_messages():
    def handler(req):
        if False:
            yield
        return req.method

    env, client, server = make_rpc(handler)

    def caller(env):
        results = yield from client.call_batch(
            [("a", (), 0), ("b", (), 0), ("c", (), 0)]
        )
        return results

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == ["a", "b", "c"]
    assert client.calls_sent == 3
    assert client.messages_sent == 1


def test_rpc_empty_batch_is_noop():
    def handler(req):
        if False:
            yield
        return None

    env, client, _ = make_rpc(handler)

    def caller(env):
        result = yield from client.call_batch([])
        return result

    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == []


def test_rpc_concurrent_calls_match_replies():
    def handler(req):
        # Reverse completion order: first request takes longer.
        yield henv.timeout(1.0 if req.method == "slow" else 0.0)
        return req.method.upper()

    env, client, _ = make_rpc(handler)
    henv = env
    results = {}

    def caller(env, method):
        value = yield from client.call(method)
        results[method] = (value, env.now)

    env.process(caller(env, "slow"))
    env.process(caller(env, "fast"))
    env.run()
    assert results["slow"][0] == "SLOW"
    assert results["fast"][0] == "FAST"


def test_rpc_reply_bulk_bytes_charged_on_success_and_error():
    """Regression: the error path must charge ``reply_extra_bytes`` on the
    wire exactly like the success path — an error reply to a 1 GB D2H copy
    used to travel for free."""

    def handler(req):
        if False:
            yield
        if req.method == "boom":
            raise ValueError("injected")
        return "ok"

    for method in ("fine", "boom"):
        env, conn = make_pair(latency=1e-4)
        client = RpcClient(conn.a)
        server = RpcServer(conn.b, handler)
        server.start()

        def caller(env):
            try:
                yield from client.call(method, reply_extra_bytes=1_000_000_000)
            except RpcError:
                pass

        p = env.process(caller(env))
        env.run(until=p)
        assert conn.b.bytes_out >= 1_000_000_000, method


def test_rpc_timeout_raises_then_late_reply_stays_deliverable():
    def handler(req):
        yield henv.timeout(3.0)
        return req.method.upper()

    env, client, server = make_rpc(handler)
    henv = env

    def caller(env):
        with pytest.raises(RpcTimeout):
            yield from client.call("first", timeout_s=1.0)
        t_timeout = env.now
        # the abandoned receive was withdrawn; a fresh call still matches
        # its own reply even with the stale msg-1 reply in the inbox
        result = yield from client.call("retry")
        return (t_timeout, result, env.now)

    p = env.process(caller(env))
    env.run(until=p)
    t_timeout, result, t_done = p.value
    assert t_timeout == pytest.approx(1.0, abs=1e-2)
    assert result == "RETRY"
    assert t_done >= 4.0  # retry waited behind the first in-flight handler


def test_rpc_killed_server_goes_silent():
    """kill() mid-handler models a crash: no reply, not even an error."""

    def handler(req):
        yield henv.timeout(1.0)
        return "never"

    env, client, server = make_rpc(handler)
    henv = env

    def killer(env):
        yield env.timeout(0.5)
        server.kill()

    def caller(env):
        with pytest.raises(RpcTimeout):
            yield from client.call("work", timeout_s=2.0)
        return env.now

    env.process(killer(env))
    p = env.process(caller(env))
    env.run(until=p)
    assert p.value == pytest.approx(2.0, abs=1e-2)
    assert server.endpoint.messages_sent == 0


# --- link fault injection ----------------------------------------------------

def test_fault_injector_validation():
    with pytest.raises(ConfigurationError):
        LinkFaultInjector(None, drop_prob=1.5)
    with pytest.raises(ConfigurationError):
        LinkFaultInjector(None, delay_spike_s=-1.0)
    with pytest.raises(ConfigurationError):
        LinkFaultInjector(None, partitions=[(2.0, 1.0)])
    with pytest.raises(ConfigurationError):
        LinkFaultInjector(None, drop_prob=0.5)  # probabilistic ⇒ RNG required


def test_dropped_message_charges_wire_but_never_arrives():
    env, conn = make_pair(latency=1e-3)
    conn.faults = LinkFaultInjector(np.random.default_rng(0), drop_prob=1.0)
    got = []

    def receiver(env):
        msg = yield conn.b.recv()
        got.append(msg)

    env.process(receiver(env))
    conn.a.send("doomed", extra_bytes=1000)
    env.run(until=2.0)
    assert got == []
    assert conn.faults.messages_dropped == 1
    assert conn.a.bytes_out > 1000  # wire time/bytes still charged


def test_partition_window_drops_then_heals():
    env, conn = make_pair(latency=1e-3)
    conn.faults = LinkFaultInjector(None, partitions=[(1.0, 2.0)])
    got = []

    def receiver(env):
        while True:
            msg = yield conn.b.recv()
            got.append(msg)

    def sender(env):
        yield env.timeout(1.5)
        conn.a.send("lost")  # inside the window
        yield env.timeout(1.0)
        conn.a.send("healed")  # after it

    env.process(receiver(env))
    env.process(sender(env))
    env.run(until=4.0)
    assert got == ["healed"]
    assert conn.faults.messages_dropped == 1


def test_delay_spike_slows_delivery():
    env, conn = make_pair(latency=1e-3)
    conn.faults = LinkFaultInjector(
        np.random.default_rng(0), delay_spike_prob=1.0, delay_spike_s=0.5
    )
    got = []

    def receiver(env):
        yield conn.b.recv()
        got.append(env.now)

    env.process(receiver(env))
    conn.a.send("slow")
    env.run(until=2.0)
    assert got and got[0] >= 0.5
    assert conn.faults.delay_spikes == 1


def test_rpc_server_stop():
    def handler(req):
        if False:
            yield
        return None

    env, client, server = make_rpc(handler)

    def caller(env):
        yield from client.call("x")
        server.stop()
        client.call_oneway("y")  # will be ignored after stop drains
        yield env.timeout(1.0)

    p = env.process(caller(env))
    env.run()
    # One handled before stop; the oneway after stop is at most one more.
    assert server.requests_handled <= 2
