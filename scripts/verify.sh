#!/usr/bin/env bash
# Repo verification: lint (when ruff is available) + tier-1 test suite.
#
# Usage: scripts/verify.sh [extra pytest args]
set -euo pipefail
cd "$(dirname "$0")/.."

if command -v ruff >/dev/null 2>&1; then
    echo "== ruff =="
    ruff check src tests benchmarks scripts examples
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

echo "== committed-bench gates (bench.py check) =="
# Runs each bench's ci profile, writes the fresh JSON to BENCH_OUT_DIR and
# gates it against the committed BENCH_*.json.  Each bench's rows, profiles
# and gate rules (compat keys, exact/ignored fields, the kernel speedup and
# shard scale-out floors, shard invariance, pop-order identity, the LLM
# steady-chat p99 claim) are declared in one entry of scripts/bench.py.
BENCH_OUT="${BENCH_OUT_DIR:-/tmp/dgsf-bench}"
PYTHONPATH=src python scripts/bench.py check sched kernel shard llm \
    --out-dir "$BENCH_OUT"

echo "== regression-attribution smoke (explain_smoke) =="
# Injects a synthetic queue slowdown into a copy of the fresh LLM bench
# and asserts bench.py compare's attribution blames the right category; the
# perturbed copy + attribution diff land in EXPLAIN_OUT_DIR as the CI
# diff-report artifact.  Misattribution exits non-zero.
python scripts/explain_smoke.py "$BENCH_OUT/BENCH_llm.json" \
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
