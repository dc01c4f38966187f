#!/usr/bin/env python
"""Build your own GPU serverless workload.

Two patterns downstream users need:

1. **Scientific code via the CuPy-like API** — a Monte-Carlo pipeline
   written against :class:`repro.mllib.cupylib.CupyContext`, deployed as
   a serverless function (runs identically on native or DGSF GPUs).
2. **Image pipeline via the OpenCV-like API** — upload / resize / filter
   / download with :mod:`repro.mllib.opencvlib`.

It also shows the three-line comparison harness: run the same function
under a native deployment and under DGSF and compare end-to-end times.

Run:  python examples/custom_workload.py
"""

import numpy as np

from repro.core import DgsfConfig
from repro.core.deployment import DgsfDeployment, NativeDeployment
from repro.faas import FunctionSpec
from repro.mllib import CupyContext
from repro.mllib.opencvlib import cv_upload, cv_resize, cv_filter, cv_download
from repro.simcuda.types import GB


def monte_carlo_handler(fc):
    """Estimate a dot-product-ish statistic on the GPU with CuPy-style ops."""
    gpu = yield from fc.acquire_gpu()
    cp = CupyContext(fc.env, gpu)

    rng = np.random.default_rng(0)
    x = yield from cp.array(rng.random(4096).astype(np.float32))
    acc = yield from cp.array(np.zeros(4096, dtype=np.float32))
    for step in range(8):
        # acc += 0.5 * x  (each axpy is one batched kernel launch)
        yield from cp.axpy(0.5, x, acc, work_s=0.02)
    data = yield from cp.asnumpy(acc)
    yield from cp.free_all()
    first = data[:4].view(np.float32)
    return float(first[0])  # 8 * 0.5 * x[0]


def image_pipeline_handler(fc):
    """Decode → upload → resize → filter → download, OpenCV-CUDA style."""
    gpu = yield from fc.acquire_gpu()
    frame = np.random.default_rng(1).integers(
        0, 255, size=(480, 640, 3), dtype=np.uint8
    )
    mat = yield from cv_upload(gpu, frame)
    small = yield from cv_resize(gpu, mat, 224, 224, work_s=0.01)
    yield from cv_filter(gpu, small, work_s=0.02)
    pixels = yield from cv_download(gpu, small)
    yield from gpu.cudaFree(mat.ptr)
    yield from gpu.cudaFree(small.ptr)
    return len(pixels)


def run_under(deployment, name, handler):
    deployment.setup()
    deployment.platform.register(
        FunctionSpec(name=name, handler=handler, gpu_mem_bytes=1 * GB)
    )
    inv, proc = deployment.platform.invoke(name)
    deployment.env.run(until=proc)
    return inv


def main():
    # --- Monte-Carlo function: native vs DGSF ---
    native = run_under(NativeDeployment(num_gpus=1), "mc", monte_carlo_handler)
    dgsf = run_under(DgsfDeployment(DgsfConfig(num_gpus=1)), "mc", monte_carlo_handler)
    x0 = native.result
    assert abs(dgsf.result - x0) < 1e-6, "identical math under both backends"
    print("monte-carlo estimate identical under native and DGSF backends")
    print(f"  native e2e: {native.e2e_s:6.2f} s  (pays 3.2 s CUDA init)")
    print(f"  dgsf   e2e: {dgsf.e2e_s:6.2f} s  (init pre-created remotely)")
    assert dgsf.e2e_s < native.e2e_s

    # --- Image pipeline on DGSF ---
    inv = run_under(
        DgsfDeployment(DgsfConfig(num_gpus=1)), "imgpipe", image_pipeline_handler
    )
    print(f"image pipeline produced {inv.result} bytes "
          f"in {inv.e2e_s:.2f} s on a disaggregated GPU")


if __name__ == "__main__":
    main()
