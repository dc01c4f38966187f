"""Tests for differential regression attribution (repro.obs.diff) and
its ``scripts/bench.py compare`` integration: cohort attribution over
critpath rows, additive delta decomposition, the formatted regression
line, the difffolded flame diff, and artifact-loading dispatch."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.obs.critpath import RESOURCES
from repro.obs.diff import (
    attribution_from_tracer,
    cohort_attribution,
    diff_attribution,
    dump_flame_diff,
    flame_diff,
    format_diff_row,
    load_attribution,
)
from repro.obs.diff import main as diff_main
from repro.obs.trace import Tracer
from repro.sim.core import Environment

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py",
)
harness = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = harness  # dataclasses resolve annotations there
_SPEC.loader.exec_module(harness)


def critpath_row(workload, e2e_s, **resources):
    """Synthetic invocation_critpaths row; unnamed categories get 0."""
    res = {name: 0.0 for name in RESOURCES}
    res.update(resources)
    return {"workload": workload, "e2e_s": e2e_s, "resources": res}


def attribution_entry(latency_s, pcts=(50, 95, 99), **categories):
    cats = {name: 0.0 for name in RESOURCES}
    cats.update(categories)
    entry = {"count": 10}
    for pct in pcts:
        entry[f"p{pct}"] = {"latency_s": latency_s, "cohort": 1,
                            "categories": dict(cats)}
    return entry


# -- layer 1: cohort attribution ----------------------------------------------

def test_cohort_attribution_is_an_additive_split():
    rows = [
        critpath_row("wl", 1.0 + i * 0.1,
                     queue=0.5 + i * 0.1, gpu_compute=0.4, cpu=0.1)
        for i in range(10)
    ]
    attr = cohort_attribution(rows)
    entry = attr["wl"]
    assert entry["count"] == 10
    # p99 cohort: the single slowest invocation (e2e 1.9)
    p99 = entry["p99"]
    assert p99["cohort"] == 1
    assert p99["latency_s"] == pytest.approx(1.9)
    assert sum(p99["categories"].values()) == pytest.approx(1.9)
    # p50 cohort is the upper half: mean latency above the overall mean
    p50 = entry["p50"]
    assert p50["cohort"] == 5
    assert p50["latency_s"] > sum(r["e2e_s"] for r in rows) / len(rows)


def test_cohort_attribution_groups_by_workload():
    rows = [critpath_row("a", 1.0, cpu=1.0), critpath_row("b", 2.0, queue=2.0)]
    attr = cohort_attribution(rows, percentiles=(99,))
    assert set(attr) == {"a", "b"}
    assert attr["b"]["p99"]["categories"]["queue"] == pytest.approx(2.0)


def test_attribution_from_tracer_uses_critical_path():
    tracer = Tracer(Environment())
    root = tracer.begin("invocation:wl", cat="invocation",
                        trace_id=tracer.new_trace_id())
    root.child_complete("gpu_request", 0.0, 0.4, cat="queue")
    root.child_complete("srv:run", 0.4, 0.9, cat="server")
    root.end(t_end=1.0, status="completed", workload="wl")
    attr = attribution_from_tracer(tracer, percentiles=(99,))
    cats = attr["wl"]["p99"]["categories"]
    assert cats["queue"] == pytest.approx(0.4)
    assert cats["gpu_compute"] == pytest.approx(0.5)
    assert cats["cpu"] == pytest.approx(0.1)  # uncovered root remainder
    assert attr["wl"]["p99"]["latency_s"] == pytest.approx(1.0)


# -- layer 2: alignment + diff table ------------------------------------------

def test_diff_attribution_blames_the_moved_category():
    base = {"steady/continuous": attribution_entry(
        1.0, queue=0.3, gpu_compute=0.6, cpu=0.1)}
    fresh = {"steady/continuous": attribution_entry(
        1.04, queue=0.34, gpu_compute=0.6, cpu=0.1)}
    rows = diff_attribution(base, fresh, percentiles=(99,))
    assert len(rows) == 1
    row = rows[0]
    assert row["workload"] == "steady/continuous"
    assert row["percentile"] == "p99"
    assert row["regression"] is True
    assert row["top"] == "queue"
    assert row["delta_latency_s"] == pytest.approx(0.04)
    assert row["shares"]["queue"] == pytest.approx(1.0)


def test_diff_attribution_handles_improvements_and_mixed_movement():
    base = {"wl": attribution_entry(1.0, queue=0.5, gpu_compute=0.5)}
    fresh = {"wl": attribution_entry(0.92, queue=0.40, gpu_compute=0.52)}
    (row,) = diff_attribution(base, fresh, percentiles=(95,))
    assert row["regression"] is False
    assert row["top"] == "queue"  # the dominant mover, sign-aware
    # shares are over the dominant direction only (queue got faster)
    assert row["shares"]["queue"] == pytest.approx(1.0)
    assert row["shares"]["gpu_compute"] == 0.0


def test_diff_attribution_skips_unshared_workloads():
    base = {"old": attribution_entry(1.0, cpu=1.0)}
    fresh = {"new": attribution_entry(1.0, cpu=1.0)}
    assert diff_attribution(base, fresh) == []


def test_format_diff_row_names_major_contributors_only():
    row = {
        "workload": "steady/continuous", "percentile": "p99",
        "delta_latency_s": 0.040,
        "shares": {"queue": 0.80, "gpu_compute": 0.15, "cpu": 0.04,
                   "wire": 0.01},
    }
    line = format_diff_row(row)
    assert line == ("steady/continuous p99 +40.0 ms: "
                    "80% queue, 15% gpu_compute")
    flat = dict(row, shares={name: 0.0 for name in RESOURCES},
                delta_latency_s=0.0)
    assert "no attributed movement" in format_diff_row(flat)


# -- layer 3: flame diff ------------------------------------------------------

def test_flame_diff_emits_difffolded_lines(tmp_path):
    base = {"invocation:wl;gpu_request": 0.001}
    fresh = {"invocation:wl;gpu_request": 0.002, "invocation:wl;srv:run": 0.0005}
    lines = flame_diff(base, fresh)
    assert lines == [
        "invocation:wl;gpu_request 1000 2000",
        "invocation:wl;srv:run 0 500",
    ]
    out = tmp_path / "flame_diff.folded"
    assert dump_flame_diff(base, fresh, out) == 2
    assert out.read_text().splitlines() == lines


# -- artifact loading + CLI ---------------------------------------------------

def test_load_attribution_dispatch(tmp_path):
    attr = {"wl": attribution_entry(1.0, cpu=1.0)}
    wrapped = tmp_path / "wrapped.json"
    wrapped.write_text(json.dumps({"attribution": attr}))
    assert load_attribution(wrapped) == attr

    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(attr))
    assert load_attribution(bare) == attr

    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"rows": [
        {"scenario": "steady", "mode": "continuous",
         "attribution": attr["wl"]},
    ]}))
    assert load_attribution(bench) == {"steady/continuous": attr["wl"]}


def test_load_attribution_rejects_attribution_less_bench(tmp_path):
    bench = tmp_path / "bench.json"
    bench.write_text(json.dumps({"rows": [{"scenario": "s", "mode": "m"}]}))
    with pytest.raises(ConfigurationError, match="no attribution"):
        load_attribution(bench)


def test_diff_cli_prints_table_and_writes_artifact(tmp_path, capsys):
    base = tmp_path / "base.json"
    fresh = tmp_path / "fresh.json"
    base.write_text(json.dumps(
        {"attribution": {"wl": attribution_entry(1.0, queue=1.0, pcts=(99,))}}))
    fresh.write_text(json.dumps(
        {"attribution": {"wl": attribution_entry(1.1, queue=1.1, pcts=(99,))}}))
    out_dir = tmp_path / "out"
    assert diff_main([str(base), str(fresh), "--out", str(out_dir)]) == 0
    assert "wl p99 +100.0 ms: 100% queue" in capsys.readouterr().out
    dumped = json.loads((out_dir / "diff.json").read_text())
    assert dumped["rows"][0]["top"] == "queue"


# -- bench.py compare: explain integration -------------------------------------

def llm_doc(p99=120.0, queue=0.030):
    return {
        "experiment": "llm_bench",
        "seed": 5,
        "copies": 2,
        "rows": [{
            "scenario": "steady", "mode": "continuous",
            "n_requests": 40, "p99_token_ms": p99,
            "attribution": attribution_entry(
                p99 / 1e3, pcts=(99,), queue=queue,
                gpu_compute=p99 / 1e3 - queue),
        }],
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_bench_compare_explain_attributes_banded_failure(tmp_path, capsys):
    base = write(tmp_path, "base.json", llm_doc())
    fresh = write(tmp_path, "fresh.json", llm_doc(p99=160.0, queue=0.070))
    out = tmp_path / "diff.json"
    rc = harness.main(["compare", base, fresh, "--explain-out", str(out)])
    assert rc == 1  # the banded p99 failure still fails the gate
    err = capsys.readouterr().err
    assert "attribution (why the tail moved):" in err
    assert "100% queue" in err and "<-- regression" in err
    dumped = json.loads(out.read_text())
    assert dumped["rows"][0]["top"] == "queue"
    # rows that carry attribution maps are explained without asking
    assert harness.main(["compare", base, fresh]) == 1
    assert "100% queue" in capsys.readouterr().err


def test_bench_compare_explain_quiet_without_attribution(tmp_path, capsys):
    def plain(p99):
        doc = llm_doc(p99=p99)
        del doc["rows"][0]["attribution"]
        return doc

    base = write(tmp_path, "base.json", plain(120.0))
    fresh = write(tmp_path, "fresh.json", plain(160.0))
    # no maps: a plain regression report, unless the diff is asked for
    assert harness.main(["compare", base, fresh]) == 1
    assert "attribution" not in capsys.readouterr().err
    out = tmp_path / "diff.json"
    assert harness.main(["compare", base, fresh, "--explain-out", str(out)]) == 1
    assert "no attribution maps" in capsys.readouterr().err
