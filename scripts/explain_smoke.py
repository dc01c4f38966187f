#!/usr/bin/env python
"""End-to-end smoke for differential regression attribution.

Takes a freshly generated ``BENCH_llm.json``, injects a synthetic
slowdown into a *copy* of it — one scenario's p99 token latency bumped
past the comparison band, with the matching seconds added to one
resource category of its embedded attribution map — then runs
``bench.py compare`` against the unperturbed file as baseline (the LLM
bench explains its regressions) and asserts that:

1. the compare fails (exit 1 — the band caught the regression),
2. the attribution diff names the *injected* category as the top
   contributor for the perturbed scenario's p99 cohort,
3. no unperturbed scenario is blamed.

Misattribution exits non-zero, so verify.sh and CI gate on the explain
pipeline actually localizing a known-cause regression, not merely
printing something.  The perturbed copy, the compare transcript, and the
attribution diff JSON are left in ``--out`` as the CI diff-report
artifact.

Usage::

    python scripts/explain_smoke.py /tmp/fresh-llm.json --out /tmp/explain-smoke
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: the scenario/mode row the slowdown is injected into
TARGET = ("steady", "continuous")
#: the category the injected seconds land in — what the attribution must name
CATEGORY = "queue"
#: injected slowdown (well outside the default ±(0.05 + 2%) band)
SLOWDOWN_S = 0.040


def perturb(fresh: dict) -> dict:
    """Return a deep-copied bench dict with the synthetic slowdown."""
    out = json.loads(json.dumps(fresh))
    for row in out.get("rows", []):
        if (row.get("scenario"), row.get("mode")) != TARGET:
            continue
        row["p99_token_ms"] = round(row["p99_token_ms"] + SLOWDOWN_S * 1e3, 2)
        attr = row.get("attribution")
        if not isinstance(attr, dict) or "p99" not in attr:
            raise SystemExit(
                f"{'/'.join(TARGET)} row carries no p99 attribution map; "
                f"regenerate the bench with tracing enabled"
            )
        cohort = attr["p99"]
        cohort["latency_s"] += SLOWDOWN_S
        cohort["categories"][CATEGORY] = (
            cohort["categories"].get(CATEGORY, 0.0) + SLOWDOWN_S
        )
        return out
    raise SystemExit(f"no {'/'.join(TARGET)} row in the fresh bench JSON")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", type=Path,
                        help="freshly generated BENCH_llm.json (with "
                             "embedded attribution maps)")
    parser.add_argument("--out", type=Path, default=Path("/tmp/explain-smoke"),
                        help="artifact directory (perturbed copy, compare "
                             "transcript, attribution diff JSON)")
    args = parser.parse_args(argv)

    fresh = json.loads(args.fresh.read_text())
    args.out.mkdir(parents=True, exist_ok=True)
    perturbed_path = args.out / "perturbed.json"
    perturbed_path.write_text(json.dumps(perturb(fresh), indent=2) + "\n")
    diff_path = args.out / "attribution_diff.json"

    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "bench.py"), "compare",
         str(args.fresh), str(perturbed_path), "--explain-out", str(diff_path)],
        capture_output=True, text=True,
    )
    (args.out / "compare.log").write_text(proc.stdout + proc.stderr)
    sys.stderr.write(proc.stderr)

    if proc.returncode != 1:
        print(f"FAIL: bench.py compare exited {proc.returncode}, expected 1 "
              f"(injected slowdown not caught)", file=sys.stderr)
        return 1
    try:
        diff_rows = json.loads(diff_path.read_text())["rows"]
    except (OSError, ValueError, KeyError) as exc:
        print(f"FAIL: attribution diff not written: {exc}", file=sys.stderr)
        return 1

    target_label = "/".join(TARGET)
    failures = []
    hit = False
    for row in diff_rows:
        if row["workload"] == target_label and row["percentile"] == "p99":
            hit = True
            if row["top"] != CATEGORY:
                failures.append(
                    f"misattribution: {target_label} p99 blamed "
                    f"{row['top']!r}, injected into {CATEGORY!r}"
                )
            if not row["regression"]:
                failures.append(f"{target_label} p99 not flagged as regression")
            if row["shares"].get(CATEGORY, 0.0) < 0.5:
                failures.append(
                    f"{CATEGORY} share {row['shares'].get(CATEGORY, 0.0):.0%} "
                    f"< 50% of the attributed delta"
                )
        elif row["workload"] != target_label and row["regression"] \
                and abs(row["delta_latency_s"]) > 1e-9:
            failures.append(
                f"spurious blame: untouched {row['workload']} "
                f"{row['percentile']} flagged as regression"
            )
    if not hit:
        failures.append(f"no {target_label} p99 row in the attribution diff")

    if failures:
        print("FAIL: explain smoke:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"OK: compare attributed the injected {target_label} p99 "
          f"slowdown to {CATEGORY!r} (artifacts in {args.out})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
