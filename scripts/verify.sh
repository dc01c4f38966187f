#!/usr/bin/env bash
# Repo verification: lint (when ruff is available) + tier-1 test suite.
#
# Usage: scripts/verify.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts
else
    echo "== ruff not installed; skipping lint =="
fi

echo "== tier-1 tests =="
# Parallelize across cores when pytest-xdist is installed (CI installs it;
# the suite is isolation-clean under -n auto). Fall back to serial -x.
if PYTHONPATH=src python -c "import xdist" >/dev/null 2>&1; then
    PYTHONPATH=src python -m pytest -q -n auto "$@"
else
    PYTHONPATH=src python -m pytest -x -q "$@"
fi

echo "== full-stack benchmark self-tests (perfbench) =="
PYTHONPATH=src python3 -m pytest -q perfbench

echo "== observability smoke (profile_report) =="
PYTHONPATH=src python scripts/profile_report.py \
    --workload kmeans \
    --out-dir "${PROFILE_OUT_DIR:-/tmp/dgsf-profile}" \
    --min-coverage 0.95

echo "== multi-workload observability smoke (profile_report --mixed) =="
# The only CI run of the per-workload aggregate over contended runs, whose
# retroactive phase spans can overlap at float-rounding scale.
PYTHONPATH=src python scripts/profile_report.py \
    --mixed --copies 2 \
    --out-dir "${PROFILE_OUT_DIR:-/tmp/dgsf-profile}-mixed" \
    --min-coverage 0.95

echo "== scheduler ablation smoke (bench_sched) =="
# copies must match the committed BENCH_sched.json baseline (copies=4)
# or bench_compare refuses the comparison
SCHED_OUT="${SCHED_BENCH_OUT:-/tmp/dgsf-bench-sched.json}"
PYTHONPATH=src python scripts/bench_sched.py --copies 4 --out "$SCHED_OUT"

echo "== perf-regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_sched.json "$SCHED_OUT"

echo "== kernel event-throughput bench (bench_kernel, --quick) =="
# The committed BENCH_kernel.json is the full 1M-event profile (manual
# refresh, ~90s); the smoke runs the 100k --quick profile and gates only
# the size-independent order section (ORDER_EVENTS is fixed, so the pop
# digests are comparable across profiles). --min-speedup stays well below
# the committed ~4x so only a real structural regression trips it on a
# noisy runner.
KERNEL_OUT="${KERNEL_BENCH_OUT:-/tmp/dgsf-bench-kernel.json}"
PYTHONPATH=src python scripts/bench_kernel.py --quick --out "$KERNEL_OUT" \
    --min-speedup 1.5

echo "== kernel-bench regression gate (bench_compare) =="
python scripts/bench_compare.py BENCH_kernel.json "$KERNEL_OUT" \
    --sections order --skip-compat events

echo "== sharded-simulation smoke (bench_shard) =="
# Regenerates the smoke section (merged-outcome digests are exact and
# machine-independent; throughput fields are ignored by the gate). The
# committed scaleout section (1M invocations) is a manual refresh.
# --min-scaleout is a loose sanity floor for the ~1s smoke workload, where
# worker spawn overhead is a big slice of wall time; the >=2x expectation
# applies to the full 1M profile on a >=4-core box. bench_shard skips the
# floor entirely when the machine has fewer cores than shards.
SHARD_OUT="${SHARD_BENCH_OUT:-/tmp/dgsf-bench-shard.json}"
PYTHONPATH=src python scripts/bench_shard.py --profile smoke \
    --out "$SHARD_OUT" --min-scaleout 1.2

echo "== shard-bench regression gate (bench_compare) =="
# smoke gates the merged-outcome digests; tracing gates the merged
# trace_digest/n_spans exactly (the events_per_sec_ratio overhead field
# is recorded in the JSON but never banded — it is machine-dependent)
python scripts/bench_compare.py BENCH_shard.json "$SHARD_OUT" \
    --sections smoke,tracing

echo "== LLM serving smoke (bench_llm) =="
# copies must match the committed BENCH_llm.json baseline (copies=2) or
# bench_compare refuses the comparison.  bench_llm also self-asserts the
# headline claim (continuous beats request-level on steady-chat p99).
LLM_OUT="${LLM_BENCH_OUT:-/tmp/dgsf-bench-llm.json}"
PYTHONPATH=src python scripts/bench_llm.py --copies 2 --out "$LLM_OUT"

echo "== llm-bench regression gate (bench_compare) =="
# token/iteration/preemption/migration counts gate exactly; latency
# percentiles band; nothing throughput-shaped is compared.  --explain
# prints differential regression attribution on a banded failure.
python scripts/bench_compare.py BENCH_llm.json "$LLM_OUT" --explain

echo "== regression-attribution smoke (explain_smoke) =="
# Injects a synthetic queue slowdown into a copy of the fresh LLM bench
# and asserts bench_compare --explain blames the right category; the
# perturbed copy + attribution diff land in EXPLAIN_OUT_DIR as the CI
# diff-report artifact.  Misattribution exits non-zero.
python scripts/explain_smoke.py "$LLM_OUT" \
    --out "${EXPLAIN_OUT_DIR:-/tmp/dgsf-explain-smoke}"

echo "== sharded flight-recorder smoke (shard_report) =="
# 4-shard process-mode traced run -> one merged flight bundle; the script
# itself re-validates the bundle (per-shard tracks, records digest,
# critpath coverage), then profile_report --sharded re-opens it the way a
# CI-artifact consumer would.
FLIGHT_OUT="${FLIGHT_OUT_DIR:-/tmp/dgsf-flight}"
PYTHONPATH=src python scripts/shard_report.py --out-dir "$FLIGHT_OUT"
PYTHONPATH=src python scripts/profile_report.py --sharded "$FLIGHT_OUT"

echo "== sampled flight-recorder smoke (shard_report --sample-rate) =="
# Same traced run at a 20% head rate: keep/drop decisions ride the
# cross-shard envelopes, the coordinator resolves foreign spans against
# the merged kept set, and the bundle still validates end to end.
PYTHONPATH=src python scripts/shard_report.py \
    --out-dir "${FLIGHT_OUT}-sampled" --sample-rate 0.2
PYTHONPATH=src python scripts/profile_report.py --sharded "${FLIGHT_OUT}-sampled"
