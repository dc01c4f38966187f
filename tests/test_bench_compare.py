"""Tests for the bench harness's gate and built-in checks (scripts/bench.py)."""

import dataclasses
import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = bench  # dataclasses resolve annotations there
_SPEC.loader.exec_module(bench)

BASELINES = {name: json.loads((ROOT / spec.baseline).read_text())
             for name, spec in bench.BENCHES.items()}


def copy(doc):
    return json.loads(json.dumps(doc))


def sched_doc(**overrides):
    doc = {
        "experiment": "sched_ablation",
        "seed": 3,
        "copies": 4,
        "python": "3.12.0",
        "wall_seconds": 10.0,
        "rows": [
            {"discipline": "fcfs", "size_class": "small", "n": 8,
             "mean_queue_s": 10.0, "p99_queue_s": 40.0},
            {"discipline": "fcfs", "size_class": "large", "n": 4,
             "mean_queue_s": 30.0, "p99_queue_s": 90.0},
        ],
    }
    doc.update(overrides)
    return doc


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(tmp_path, baseline, fresh, *extra):
    return bench.main(
        ["compare", write(tmp_path, "base.json", baseline),
         write(tmp_path, "fresh.json", fresh), *extra]
    )


def gate(name, profile, baseline, fresh):
    return bench.gate(bench.BENCHES[name], profile, baseline, fresh,
                      "base.json", "fresh.json")


def test_identical_runs_pass(tmp_path, capsys):
    assert run(tmp_path, sched_doc(), sched_doc()) == 0
    assert "OK: 2 row(s)" in capsys.readouterr().out


def test_within_band_passes(tmp_path):
    fresh = sched_doc()
    # band for 10.0: 0.05 + 0.02 * 10 = 0.25
    fresh["rows"][0]["mean_queue_s"] = 10.2
    assert run(tmp_path, sched_doc(), fresh) == 0


@pytest.mark.parametrize("direction", [1.15, 0.85])
def test_out_of_band_either_direction_fails(tmp_path, capsys, direction):
    fresh = sched_doc()
    fresh["rows"][0]["mean_queue_s"] = 10.0 * direction
    assert run(tmp_path, sched_doc(), fresh) == 1
    err = capsys.readouterr().err
    assert "REGRESSION" in err and "mean_queue_s" in err


def test_count_field_must_match_exactly(tmp_path, capsys):
    fresh = sched_doc()
    fresh["rows"][0]["n"] = 9  # within any band, but counts are exact
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "exact value changed" in capsys.readouterr().err


def test_compat_mismatch_is_not_comparable(tmp_path, capsys):
    assert run(tmp_path, sched_doc(), sched_doc(seed=4)) == 2
    assert "NOT COMPARABLE" in capsys.readouterr().err


def test_unknown_experiment_is_not_comparable(tmp_path):
    assert run(tmp_path, sched_doc(experiment="mystery"),
               sched_doc(experiment="mystery")) == 2


def test_environment_keys_are_ignored(tmp_path):
    fresh = sched_doc(python="3.11.9", wall_seconds=99.0)
    assert run(tmp_path, sched_doc(), fresh) == 0


def test_subset_fresh_run_passes_by_default(capsys):
    """A subset profile (the ablation ci run: two workloads) may cover
    fewer rows than the baseline."""
    fresh = copy(BASELINES["ablation"])
    for section in ("ablation", "warm_cache"):
        fresh[section] = fresh[section][:1]
    assert gate("ablation", "ci", BASELINES["ablation"], fresh) == 0
    assert "OK: 2 row(s)" in capsys.readouterr().out


def test_require_full_rejects_subset(tmp_path, capsys):
    """A full-profile run must reproduce every baseline row."""
    fresh = sched_doc()
    fresh["rows"] = fresh["rows"][:1]
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "rows[fcfs/large]: row missing from fresh run" in capsys.readouterr().err


def test_subset_ci_doc_compared_as_full_is_not_comparable(tmp_path, capsys):
    """The ablation ci doc records no ci-only value, so ``compare`` gates
    it as full; its missing workloads are then a shape mismatch pointing
    at ``check``, not a regression."""
    fresh = copy(BASELINES["ablation"])
    for section in ("ablation", "warm_cache"):
        fresh[section] = fresh[section][:2]
    assert run(tmp_path, BASELINES["ablation"], fresh) == 2
    err = capsys.readouterr().err
    assert "NOT COMPARABLE" in err and "bench.py check" in err
    assert "REGRESSION" not in err


@pytest.mark.parametrize("name, section", [("sched", "rows"), ("llm", "rows"),
                                           ("kernel", "order")])
def test_ci_profile_without_subset_must_cover_every_row(name, section):
    """``check`` of a ci profile that regenerates every row fails when a
    row goes missing."""
    fresh = copy(BASELINES[name])
    fresh[section] = fresh[section][1:]
    assert gate(name, "ci", BASELINES[name], fresh) == 1


def test_fresh_only_row_fails(tmp_path, capsys):
    fresh = sched_doc()
    fresh["rows"].append({"discipline": "sff", "size_class": "small", "n": 8,
                          "mean_queue_s": 5.0})
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "missing from baseline" in capsys.readouterr().err


def test_empty_fresh_run_is_not_comparable(tmp_path):
    assert run(tmp_path, sched_doc(), sched_doc(rows=[])) == 2


def test_wider_tolerance_accepts_drift(tmp_path, monkeypatch):
    """The band is the harness-wide REL_TOL/ABS_TOL pair, nothing else."""
    fresh = sched_doc()
    fresh["rows"][0]["mean_queue_s"] = 11.0
    assert run(tmp_path, sched_doc(), fresh) == 1
    monkeypatch.setattr(bench, "REL_TOL", 0.15)
    assert run(tmp_path, sched_doc(), fresh) == 0


def test_ablation_sections_both_compared(tmp_path, capsys):
    doc = {
        "experiment": "fig4_ablation_plus_async_cache",
        "seed": 0,
        "ablation": [{"workload": "kmeans", "native": 5.0, "no_opt": 20.0}],
        "warm_cache": [{"workload": "kmeans", "cold_e2e": 11.0, "warm_e2e": 9.0}],
    }
    assert run(tmp_path, doc, copy(doc)) == 0
    assert "OK: 2 row(s)" in capsys.readouterr().out
    bad = copy(doc)
    bad["warm_cache"][0]["warm_e2e"] = 12.0
    assert run(tmp_path, doc, bad) == 1


def kernel_doc(**overrides):
    doc = {
        "experiment": "kernel_bench",
        "seed": 7,
        "events": 1000,
        "python": "3.11.7",
        "wall_seconds": 5.0,
        "scenarios": [
            {"scenario": "timer_flood", "impl": "wheel", "n_events": 1000,
             "final_now": 39.9, "timeouts_recycled": 1000,
             "sched_wall_s": 0.1, "wall_s": 0.5, "events_per_sec": 2000.0},
            {"scenario": "timer_flood", "impl": "legacy", "n_events": 1000,
             "final_now": 39.9, "timeouts_recycled": 0,
             "sched_wall_s": 0.1, "wall_s": 1.5, "events_per_sec": 700.0},
        ],
        "speedups": [{"scenario": "timer_flood", "speedup": 2.9}],
        "order": [{"scenario": "timer_flood", "n_events": 500,
                   "order_n": 500, "order_crc": 123456789}],
    }
    doc.update(overrides)
    return doc


def test_kernel_bench_machine_dependent_fields_ignored(tmp_path):
    fresh = kernel_doc()
    # A different machine: throughput and speedup swing wildly — fine.
    fresh["scenarios"][0]["events_per_sec"] = 9999.0
    fresh["scenarios"][0]["wall_s"] = 0.01
    fresh["speedups"][0]["speedup"] = 1.1
    assert run(tmp_path, kernel_doc(), fresh) == 0


def test_kernel_bench_order_crc_is_exact(tmp_path, capsys):
    fresh = kernel_doc()
    fresh["order"][0]["order_crc"] = 987654321  # pop order changed
    assert run(tmp_path, kernel_doc(), fresh) == 1
    assert "order_crc" in capsys.readouterr().err


def test_kernel_bench_event_count_is_exact(tmp_path, capsys):
    fresh = kernel_doc()
    fresh["scenarios"][1]["n_events"] = 999
    assert run(tmp_path, kernel_doc(), fresh) == 1
    assert "n_events" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("timeouts_recycled", 1010),
                                          ("final_now", 39.95)])
def test_kernel_bench_deterministic_fields_are_exact(tmp_path, capsys,
                                                     field, value):
    """Within the old ±(0.05 + 2%) band, but the kernel is deterministic."""
    fresh = kernel_doc()
    fresh["scenarios"][0][field] = value
    assert run(tmp_path, kernel_doc(), fresh) == 1
    assert f"{field}: exact value changed" in capsys.readouterr().err


def test_kernel_bench_different_event_scale_not_comparable(tmp_path):
    assert run(tmp_path, kernel_doc(), kernel_doc(events=500)) == 2


def test_quick_kernel_run_gates_order_section_only(tmp_path):
    """A ci-profile kernel run (100k events) against the 1M baseline gates
    the size-independent order section only, with ``events`` exempt."""
    fresh = kernel_doc(events=100_000, quick=True)
    fresh["scenarios"] = [dict(s, n_events=100_000) for s in fresh["scenarios"]]
    assert bench.profile_of(bench.BENCHES["kernel"], fresh) == "ci"
    assert run(tmp_path, kernel_doc(), fresh) == 0
    bad = copy(fresh)
    bad["order"][0]["order_crc"] = 1
    assert run(tmp_path, kernel_doc(), bad) == 1


def test_unknown_section_name_is_not_comparable(tmp_path, capsys):
    """A row section the spec does not declare can never go ungated."""
    fresh = kernel_doc(nonsense=[{"scenario": "timer_flood", "x": 1.0}])
    assert run(tmp_path, kernel_doc(), fresh) == 2
    assert "unknown section 'nonsense'" in capsys.readouterr().err


def shard_doc(**overrides):
    doc = {
        "experiment": "shard_bench",
        "seed": 7,
        "profile": "full",
        "cpu_count": 4,
        "scaleout": [
            {"scenario": "pool", "shards": 1, "groups": 8,
             "invocations": 1_000_000, "n_events": 5_000_016,
             "n_epochs": 1, "n_envelopes": 0, "merged_crc": 111,
             "wall_s": 40.0, "events_per_sec": 125_000.0, "scaleout": 1.0},
            {"scenario": "pool", "shards": 4, "groups": 8,
             "invocations": 1_000_000, "n_events": 5_000_016,
             "n_epochs": 1, "n_envelopes": 0, "merged_crc": 111,
             "wall_s": 15.0, "events_per_sec": 333_000.0, "scaleout": 2.7},
        ],
        "smoke": [
            {"scenario": "pool", "shards": 1, "groups": 8,
             "invocations": 50_000, "n_events": 250_016, "n_epochs": 1,
             "n_envelopes": 0, "merged_crc": 222, "pop_crc": 333,
             "wall_s": 2.0, "events_per_sec": 125_000.0, "scaleout": 1.0},
            {"scenario": "sync", "shards": 2, "groups": 8,
             "invocations": 50_000, "n_events": 250_400, "n_epochs": 64,
             "n_envelopes": 210, "merged_crc": 444,
             "wall_s": 2.5, "events_per_sec": 100_000.0, "scaleout": 0.9},
        ],
        "tracing": [
            {"scenario": "pool", "shards": 2, "groups": 8,
             "invocations": 20_000, "n_events": 100_016,
             "merged_crc": 555, "trace_digest": 666, "n_spans": 60_000,
             "n_envelopes": 0, "events_per_sec_ratio": 0.55},
        ],
    }
    doc.update(overrides)
    return doc


def test_shard_bench_throughput_ignored_digest_exact(tmp_path, capsys):
    fresh = shard_doc()
    # another machine: wall/throughput/scaleout swing freely
    fresh["scaleout"][1].update(wall_s=60.0, events_per_sec=83_000.0,
                                scaleout=0.66)
    fresh["cpu_count"] = 1
    assert run(tmp_path, shard_doc(), fresh) == 0
    # ...but a merged-outcome digest change is a correctness regression
    bad = shard_doc()
    bad["smoke"][1]["merged_crc"] = 999
    assert run(tmp_path, shard_doc(), bad) == 1
    assert "merged_crc" in capsys.readouterr().err


def test_shard_bench_epoch_and_envelope_counts_exact(tmp_path, capsys):
    bad = shard_doc()
    bad["smoke"][1]["n_envelopes"] = 211
    assert run(tmp_path, shard_doc(), bad) == 1
    assert "n_envelopes" in capsys.readouterr().err


def test_shard_bench_smoke_only_fresh_run(tmp_path):
    """The ci shape: fresh smoke rows gated against the committed
    full-profile baseline."""
    fresh = shard_doc(profile="smoke", scaleout=[])
    assert run(tmp_path, shard_doc(), fresh) == 0


def test_shard_single_process_pop_crc_is_exact(tmp_path, capsys):
    base = BASELINES["shard"]
    fresh = copy(base)
    fresh["single_process_pop_crc"] += 1
    assert run(tmp_path, base, fresh) == 1
    assert "single_process_pop_crc: exact value changed" in capsys.readouterr().err
    del fresh["single_process_pop_crc"]
    assert run(tmp_path, base, fresh) == 1


def test_real_committed_baselines_self_compare(tmp_path):
    """The committed baselines must be valid inputs to their own gate."""
    assert len(BASELINES) == 5
    for spec in bench.BENCHES.values():
        path = str(ROOT / spec.baseline)
        assert bench.main(["compare", path, path]) == 0, spec.baseline


# --- shard_bench tracing section ---------------------------------------------

def test_tracing_digest_and_span_count_are_exact_gated(tmp_path, capsys):
    fresh = shard_doc()
    fresh["tracing"][0]["trace_digest"] += 1
    assert run(tmp_path, shard_doc(), fresh) == 1
    assert "trace_digest" in capsys.readouterr().err

    fresh = shard_doc()
    fresh["tracing"][0]["n_spans"] -= 10
    assert run(tmp_path, shard_doc(), fresh) == 1
    assert "n_spans" in capsys.readouterr().err


def test_tracing_overhead_ratio_is_never_banded(tmp_path):
    fresh = shard_doc()
    # 10x slower tracing is a machine property, not a regression
    fresh["tracing"][0]["events_per_sec_ratio"] = 0.05
    assert run(tmp_path, shard_doc(), fresh) == 0


def test_smoke_and_tracing_sections_compare_together(tmp_path, capsys):
    """The ci shape: fresh smoke+tracing rows against the committed full
    baseline, scaleout left to the full profile."""
    fresh = shard_doc(profile="smoke", scaleout=[])
    assert run(tmp_path, shard_doc(), fresh) == 0
    assert "OK: 3 row(s)" in capsys.readouterr().out


# --- gate hardening ----------------------------------------------------------

@pytest.mark.parametrize("side", ["base", "fresh"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_metric_fails_the_band(tmp_path, capsys, side, value):
    docs = {"base": sched_doc(), "fresh": sched_doc()}
    docs[side]["rows"][0]["p99_queue_s"] = value
    assert run(tmp_path, docs["base"], docs["fresh"]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_same_infinity_on_both_sides_passes(tmp_path):
    base, fresh = sched_doc(), sched_doc()
    base["rows"][0]["p99_queue_s"] = fresh["rows"][0]["p99_queue_s"] = math.inf
    assert run(tmp_path, base, fresh) == 0
    fresh["rows"][0]["p99_queue_s"] = -math.inf
    assert run(tmp_path, base, fresh) == 1


@pytest.mark.parametrize("side", ["base", "fresh"])
def test_missing_compat_key_is_not_comparable(tmp_path, capsys, side):
    docs = {"base": sched_doc(), "fresh": sched_doc()}
    del docs[side]["copies"]
    assert run(tmp_path, docs["base"], docs["fresh"]) == 2
    assert "compat key 'copies' missing" in capsys.readouterr().err


def test_profile_exempt_compat_key_may_be_missing():
    fresh = kernel_doc(quick=True)
    del fresh["events"]
    assert gate("kernel", "ci", kernel_doc(), fresh) == 0
    assert gate("kernel", "full", kernel_doc(), fresh) == 2


@pytest.mark.parametrize("side", ["base", "fresh"])
def test_duplicate_identity_rows_are_not_comparable(tmp_path, capsys, side):
    docs = {"base": sched_doc(), "fresh": sched_doc()}
    docs[side]["rows"].append(dict(docs[side]["rows"][0], mean_queue_s=99.0))
    assert run(tmp_path, docs["base"], docs["fresh"]) == 2
    assert "duplicate row identity rows[fcfs/small]" in capsys.readouterr().err


def test_non_numeric_banded_field_fails(tmp_path, capsys):
    fresh = sched_doc()
    fresh["rows"][0]["mean_queue_s"] = "10.0"
    assert run(tmp_path, sched_doc(), fresh) == 1
    assert "not a pair of numbers" in capsys.readouterr().err


# --- the spec against the committed baselines --------------------------------

def test_every_committed_row_section_is_declared():
    for name, spec in bench.BENCHES.items():
        base = BASELINES[name]
        assert base["experiment"] == spec.experiment
        assert bench.row_sections(base) <= set(spec.sections), name


def test_declared_fields_exist_in_committed_baselines():
    """A typo in an exact/ignored set would silently band the field."""
    for name, spec in bench.BENCHES.items():
        base = BASELINES[name]
        for section_name, section in spec.sections.items():
            fields = {f for row in base[section_name] for f in row}
            declared = set(section.identity) | set(section.exact) | set(section.ignored)
            assert declared <= fields, (name, section_name, declared - fields)
        assert set(spec.exact_top) <= set(base), name
        assert set(spec.compat) <= set(base), name


def test_ci_profiles_accepted_against_committed_baselines(capsys):
    for name, spec in bench.BENCHES.items():
        ci = spec.profile("ci")
        assert set(ci.sections or ()) <= set(spec.sections), name
        assert set(ci.exempt) <= set(spec.compat), name
        assert gate(name, "ci", BASELINES[name], BASELINES[name]) == 0, name
        # committed baselines are full-profile runs
        assert bench.profile_of(spec, BASELINES[name]) == "full", name


# --- built-in checks ---------------------------------------------------------

def checks(name, doc):
    return bench.run_checks(bench.BENCHES[name], doc)


def test_committed_baselines_pass_their_checks():
    for name in bench.BENCHES:
        assert checks(name, BASELINES[name]) == [], name


def test_kernel_min_speedup_floor():
    doc = copy(BASELINES["kernel"])
    doc["speedups"][0]["speedup"] = 1.49  # timer_flood, the headline
    assert "below the 1.50x floor" in checks("kernel", doc)[0]


def test_shard_min_scaleout_armed_only_with_enough_cores():
    doc = copy(BASELINES["shard"])  # pool at 8 shards: 0.929x, cpu_count 1
    assert checks("shard", doc) == []
    doc["cpu_count"] = 8
    assert "below the 1.20x floor" in checks("shard", doc)[0]
    doc["scaleout"][3]["scaleout"] = 1.5
    assert checks("shard", doc) == []
    # a ci doc (no scaleout rows) falls back to the smoke rows
    doc["scaleout"] = []
    doc["smoke"][3]["scaleout"] = 1.1
    assert "pool at 8 shards is 1.10x" in checks("shard", doc)[0]


def test_shard_count_invariance_check():
    doc = copy(BASELINES["shard"])
    doc["smoke"][2]["merged_crc"] += 1
    problems = checks("shard", doc)
    assert len(problems) == 1 and "pool merged-outcome digest differs" in problems[0]


def test_pop_order_identity_check():
    doc = copy(BASELINES["shard"])
    doc["single_process_pop_crc"] += 1
    assert "!= single-process crc" in checks("shard", doc)[0]


def test_llm_steady_p99_claim():
    doc = copy(BASELINES["llm"])
    for row in doc["rows"]:
        if (row["scenario"], row["mode"]) == ("steady", "continuous"):
            row["p99_token_ms"] = 10_000.0
    assert "does not beat request-level" in checks("llm", doc)[0]


def with_producer(monkeypatch, name, doc):
    spec = bench.BENCHES[name]
    monkeypatch.setitem(bench.BENCHES, name, dataclasses.replace(
        spec, produce=lambda **_: {k: v for k, v in copy(doc).items()
                                   if k != "experiment"}))


def test_run_refuses_to_write_a_doc_failing_its_checks(tmp_path, monkeypatch):
    doc = copy(BASELINES["kernel"])
    doc["speedups"][0]["speedup"] = 1.0
    with_producer(monkeypatch, "kernel", doc)
    out = tmp_path / "kernel.json"
    assert bench.main(["run", "kernel", "--out", str(out)]) == 1
    assert not out.exists()
    with_producer(monkeypatch, "kernel", BASELINES["kernel"])
    assert bench.main(["run", "kernel", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenarios"] == BASELINES["kernel"]["scenarios"]


def test_check_gates_and_runs_checks(tmp_path, monkeypatch, capsys):
    with_producer(monkeypatch, "llm", BASELINES["llm"])
    assert bench.main(["check", "llm", "--out-dir", str(tmp_path)]) == 0
    assert (tmp_path / "BENCH_llm.json").exists()
    doc = copy(BASELINES["llm"])
    doc["rows"][0]["n_tokens"] += 1
    with_producer(monkeypatch, "llm", doc)
    assert bench.main(["check", "llm", "--out-dir", str(tmp_path)]) == 1
    assert "n_tokens: exact value changed" in capsys.readouterr().err


def test_kernel_pop_order_mismatch_raises(monkeypatch):
    """The wheel/heap pop-order identity is asserted while producing rows."""
    from repro.errors import SimulationError
    from repro.experiments import kernel_ablation

    crcs = iter([1, 2])
    monkeypatch.setattr(kernel_ablation, "ORDER_EVENTS", 100)
    monkeypatch.setattr(kernel_ablation, "pop_order_crc", lambda trace: next(crcs))
    with pytest.raises(SimulationError, match="order mismatch in timer_flood"):
        kernel_ablation.run(events=200, seed=7, repeat=1)
