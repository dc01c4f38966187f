"""Trace-content goldens and the tracer's recording-cost guard.

The goldens pin what a traced run records (the id-invariant
``trace_digest`` plus span and instant counts), so a change to how the
tracer stores records cannot change what it stores.  The guard pins where
the cost of a record is paid: a run appends rows and builds no
:class:`~repro.obs.trace.SpanRecord`; counts and exports read the rows,
and the records are built once, on first read.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.llm_ablation import run_llm_scenario
from repro.obs.trace import SpanRecord

REPO_ROOT = Path(__file__).resolve().parent.parent

#: (digest, spans, instants) of one traced llm_chat invocation
LLM_GOLDEN = [2848898546, 1308, 557]
#: (digest, spans, instants) of the traced 2-copy paper mix on 2 GPUs
MIX_GOLDEN = [1379258534, 75394, 3584]

# Track names carry invocation ids drawn from a process-wide counter, so
# the digests hold only for a run in a fresh interpreter.
_GOLDEN_RUNS = """
import json
from repro.core import DgsfConfig
from repro.experiments.llm_ablation import run_llm_scenario
from repro.experiments.runner import make_plan, run_mixed_scenario

def content(tracer):
    summary = tracer.summary()
    return [tracer.digest(), summary["spans"], summary["instants"]]

_, dep = run_llm_scenario("llm_chat", "continuous", copies=1)
llm = content(dep.tracer)
mix = run_mixed_scenario(
    DgsfConfig(num_gpus=2, api_servers_per_gpu=2, seed=3, tracing_enabled=True),
    make_plan("exponential", seed=3, copies=2),
)
print(json.dumps({"llm": llm, "mix": content(mix.deployment.tracer)}))
"""


@pytest.fixture(scope="module")
def fresh_content():
    proc = subprocess.run(
        [sys.executable, "-c", _GOLDEN_RUNS], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_llm_chat_content_is_pinned(fresh_content):
    assert fresh_content["llm"] == LLM_GOLDEN


def test_traced_paper_mix_content_is_pinned(fresh_content):
    assert fresh_content["mix"] == MIX_GOLDEN


@pytest.fixture
def built(monkeypatch):
    """Count SpanRecord constructions."""
    calls = []
    init = SpanRecord.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SpanRecord, "__init__", counting)
    return calls


def test_records_are_built_on_first_read_only(built):
    _, dep = run_llm_scenario("llm_chat", "continuous", copies=1)
    tracer = dep.tracer
    assert built == []  # the run only appended rows
    views = (tracer.summary(), tracer.digest(), tracer.to_chrome(),
             tracer.snapshot())
    assert [views[0]["spans"], views[0]["instants"]] == LLM_GOLDEN[1:]
    assert tracer.n_records == sum(LLM_GOLDEN[1:])
    assert built == []  # counts and exports read the rows
    records = tracer.records
    assert len(built) == len(records) == tracer.n_records
    assert tracer.records is records
    tracer.spans()
    tracer.by_trace()
    assert len(built) == len(records)  # built once, then kept
    # counts and exports read the same content back from the records
    assert (tracer.summary(), tracer.digest(), tracer.to_chrome(),
            tracer.snapshot()) == views
    assert tracer.n_records == len(records)
