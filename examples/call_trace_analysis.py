#!/usr/bin/env python
"""Analyze a workload's interposed call stream (the §V-C methodology).

DGSF's optimizations were designed by looking at what real frameworks
send through the CUDA API boundary.  This example gives the guest
library a span :class:`repro.obs.Tracer`, runs an ArcFace-style
inference session, and uses :func:`repro.obs.critpath.call_mix` to print:

* how each call was routed (localized / batched / async-forwarded /
  remoted),
* which APIs dominate interposition time — the candidates the paper's
  optimizations target,
* the same routing restricted to the inference phase (a time window
  over the span records).

Run:  python examples/call_trace_analysis.py
"""

from repro.core import DgsfConfig
from repro.core.deployment import DgsfDeployment
from repro.core.guest import GuestLibrary
from repro.mllib import OnnxInferenceSession
from repro.obs import Tracer
from repro.obs.critpath import call_mix
from repro.simcuda.types import GB, MB
from repro.simnet.rpc import RpcClient
from repro.workloads import WORKLOADS

ROUTES = ("local", "batched", "async", "remote")


def calls_by_route(mix) -> dict[str, int]:
    out = dict.fromkeys(ROUTES, 0)
    for (_, route), (calls, _) in mix.items():
        out[route] += calls
    return out


def main():
    dep = DgsfDeployment(DgsfConfig(num_gpus=1))
    dep.setup()
    server = dep.gpu_server.api_servers[0]
    conn = dep.network.connect(dep.fn_host, dep.gpu_host)
    server.begin_session(4 * GB)
    server.serve_endpoint(conn.b)
    tracer = Tracer(dep.env)
    guest = GuestLibrary(dep.env, RpcClient(conn.a),
                         flags=dep.config.optimizations, tracer=tracer)

    spec = WORKLOADS["face_identification"].spec
    session = OnnxInferenceSession(dep.env, guest, spec)

    def scenario():
        yield from guest.attach(dep.kernels.names())
        yield from session.load()
        load_end = dep.env.now
        for _ in range(4):
            yield from session.run(input_bytes=1 * MB)
        yield from session.close()
        return load_end

    proc = dep.env.process(scenario())
    load_end = dep.env.run(until=proc)

    mix = call_mix(tracer.records)
    routes = calls_by_route(mix)
    total = sum(routes.values())
    print(f"traced {total} interposed calls "
          f"({guest.calls_forwarded} crossed the network, "
          f"{guest.messages_sent} messages)\n")

    print("routing of interposed calls:")
    for route in ROUTES:
        n = routes[route]
        print(f"  {route:8s} {n:6d}  ({n / total:5.1%})")

    time_by_api: dict[str, float] = {}
    for (api, _), (_, seconds) in mix.items():
        time_by_api[api] = time_by_api.get(api, 0.0) + seconds
    print("\ntop APIs by interposition time (optimization targets):")
    for api, seconds in sorted(time_by_api.items(), key=lambda kv: -kv[1])[:8]:
        print(f"  {api:28s} {seconds * 1000:9.1f} ms")

    inference = call_mix(
        r for r in tracer.records if load_end <= r.t_start < dep.env.now
    )
    by_route = calls_by_route(inference)
    print(f"\ninference-phase slice: {sum(by_route.values())} calls, {by_route}")


if __name__ == "__main__":
    main()
