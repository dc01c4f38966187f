#!/usr/bin/env python
"""One bench harness: produce, gate and check the committed BENCH_*.json files.

Every committed benchmark is one :class:`Bench` entry in :data:`BENCHES`.
The entry holds everything about that benchmark: its experiment name and
baseline file, its compat keys, its row sections with their identity,
exact and ignored fields, a ``full`` and a ``ci`` profile, and its
built-in checks.  The rows themselves come from :mod:`repro.experiments`.

Subcommands::

    PYTHONPATH=src python scripts/bench.py run NAME [--out PATH]
    PYTHONPATH=src python scripts/bench.py compare BASE FRESH [--explain-out PATH]
    PYTHONPATH=src python scripts/bench.py check NAME [NAME ...] [--out-dir DIR]

``run`` produces one bench at its ``full`` profile and runs its checks.
A doc that fails a check is not written, so a committed baseline never
encodes a broken claim.  ``--out`` defaults to the committed baseline.

``compare`` gates FRESH against BASE.  BASE's ``experiment`` picks the
bench; FRESH's recorded parameters pick the profile (``ci`` when FRESH
records a value only the ``ci`` profile sets, else ``full``):

* every compat key must be present on both sides and equal, unless the
  profile exempts it;
* rows match on their section's identity fields.  Duplicate identities
  and undeclared row sections, on either side, make the files not
  comparable.  Every fresh row must exist in the baseline, and every
  baseline row must be reproduced unless the profile is a ``subset``
  (the ``ci`` runs of fewer ablation workloads or shard counts).  The
  ablation ``ci`` doc records no ci-only parameter, so ``compare`` takes
  it for ``full``; a ``full`` doc of a bench with a subset ``ci``
  profile that lacks baseline rows is therefore not comparable (gate a
  subset doc with ``check``);
* exact fields must be equal.  Ignored fields (machine-dependent
  throughput and wall time, embedded attribution maps) are skipped.
  Every other field is banded: ``|fresh - base| <= ABS_TOL + REL_TOL *
  |base|`` in either direction — in a deterministic simulator "faster" is
  as much a behaviour change as "slower".  A non-finite value on either
  side violates the band unless both sides are the same infinity;
* on a regression, when rows embed ``attribution`` maps (or
  ``--explain-out`` asks for them), differential regression attribution
  (:mod:`repro.obs.diff`) is printed, e.g. "steady/continuous p99
  +40.0 ms: 80% queue".  ``--explain-out`` also writes the diff table as
  JSON.

``check`` runs each named bench's ``ci`` profile, writes the fresh doc to
``--out-dir`` under the baseline's file name, runs the bench's checks and
gates the doc against the committed baseline.

Exit status: 0 = OK, 1 = regression or failed check, 2 = not comparable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.scheduler import DISCIPLINES  # noqa: E402
from repro.experiments import (  # noqa: E402
    fig3,
    fig4,
    kernel_ablation,
    llm_ablation,
    render_table,
    sched_ablation,
    shard_ablation,
)
from repro.obs.diff import diff_attribution, format_diff_row  # noqa: E402
from repro.workloads import WORKLOADS  # noqa: E402

#: band of every row field a section declares neither exact nor ignored
REL_TOL = 0.02
ABS_TOL = 0.05

#: default output directory of ``check``
OUT_DIR = Path(tempfile.gettempdir()) / "dgsf-bench"


@dataclass(frozen=True)
class Section:
    """One list-of-rows section: how rows match and how each field gates."""

    identity: tuple
    exact: Collection[str] = ()
    ignored: Collection[str] = ()


@dataclass(frozen=True)
class Profile:
    """Producer parameters, the sections they regenerate comparably
    (``None``: all), the compat keys this profile may differ on, and
    whether its rows may be a subset of the baseline's."""

    params: dict
    sections: Optional[tuple] = None
    exempt: Collection[str] = ()
    subset: bool = False


@dataclass(frozen=True)
class Bench:
    experiment: str
    baseline: str
    compat: tuple
    sections: dict
    produce: Callable[..., dict]
    #: ``full`` and, when it differs, ``ci``
    profiles: dict
    #: ``doc -> [problem, ...]``, run on every freshly produced doc
    checks: tuple = ()
    #: top-level fields compared exactly
    exact_top: tuple = ()

    def profile(self, name: str) -> Profile:
        return self.profiles.get(name, self.profiles["full"])


# ---------------------------------------------------------------------------
# producers: profile parameters -> every doc field but experiment/python/wall
# ---------------------------------------------------------------------------

def produce_ablation(seed, workloads=None):
    workloads = list(workloads or sorted(WORKLOADS))
    ablation = fig4.run(workloads=workloads, seed=seed)
    # the artifact-cache repeat: cold vs warm download and e2e per workload
    runs = {(r["workload"], r["variant"]): r
            for r in fig3.run(workloads, ("dgsf", "dgsf_warm"), seed)}
    warm_cache = [{"workload": name,
                   "cold_download": runs[name, "dgsf"]["download"],
                   "warm_download": runs[name, "dgsf_warm"]["download"],
                   "cold_e2e": runs[name, "dgsf"]["total"],
                   "warm_e2e": runs[name, "dgsf_warm"]["total"]}
                  for name in workloads]
    return {
        "seed": seed,
        "steps": ["native"] + [label for label, _ in fig4.ABLATION_STEPS],
        "ablation": ablation,
        "warm_cache": warm_cache,
    }


def produce_sched(seed, copies):
    return {"seed": seed, "copies": copies, "disciplines": list(DISCIPLINES),
            "rows": sched_ablation.run(seed=seed, copies=copies)}


def produce_llm(seed, copies):
    return {"seed": seed, "copies": copies, "modes": list(llm_ablation.MODES),
            "rows": llm_ablation.run(seed=seed, copies=copies)}


def produce_kernel(seed, events, repeat, quick):
    return {"seed": seed, "events": events, "quick": quick,
            **kernel_ablation.run(events=events, seed=seed, repeat=repeat)}


def produce_shard(seed, profile, mode, groups, shard_counts,
                  smoke_invocations, tracing_invocations, invocations=None):
    doc = {"seed": seed, "profile": profile, "mode": mode,
           "cpu_count": os.cpu_count() or 1, "scaleout": [], "smoke": []}
    for scenario in shard_ablation.SCENARIOS:
        doc["smoke"] += shard_ablation.run(
            seed, smoke_invocations, groups, shard_counts, scenario, mode,
            record_pop=True)
    doc["tracing"] = shard_ablation.tracing_rows(
        tracing_invocations, groups, seed, mode)
    doc["single_process_pop_crc"] = shard_ablation.single_process_pop_crc(
        smoke_invocations, groups, seed)
    if profile == "full":
        for scenario in shard_ablation.SCENARIOS:
            doc["scaleout"] += shard_ablation.run(
                seed, invocations, groups, shard_counts, scenario, mode)
    return doc


# ---------------------------------------------------------------------------
# built-in checks: doc -> list of problems
# ---------------------------------------------------------------------------

def min_speedup(doc, floor):
    """The headline scenario's wheel/legacy events/sec ratio."""
    row = next(r for r in doc["speedups"]
               if r["scenario"] == kernel_ablation.HEADLINE)
    if row["speedup"] < floor:
        return [f"{row['scenario']} wheel/legacy speedup {row['speedup']:.2f}x "
                f"is below the {floor:.2f}x floor"]
    return []


def min_scaleout(doc, floor):
    """Pool scale-out at the largest shard count; armed only when the
    machine has at least that many cores (else the workers timeslice)."""
    rows = [r for r in doc["scaleout"] or doc["smoke"] if r["scenario"] == "pool"]
    top = max(rows, key=lambda r: r["shards"])
    if top["shards"] == 1:
        return []
    if doc["cpu_count"] < top["shards"]:
        print(f"[min_scaleout not armed: {doc['cpu_count']} core(s) < "
              f"{top['shards']} shards]")
        return []
    if top["scaleout"] < floor:
        return [f"pool at {top['shards']} shards is {top['scaleout']:.2f}x vs "
                f"1 shard, below the {floor:.2f}x floor "
                f"({doc['cpu_count']} cores)"]
    return []


def shard_invariance(doc):
    """Every shard count of a scenario merges to the same outcome digest."""
    return [problem for name in ("smoke", "scaleout")
            for problem in shard_ablation.invariance_problems(doc[name])]


def pop_order_identity(doc):
    """The 1-shard pool run pops events exactly as one plain env.run()."""
    row = next(r for r in doc["smoke"]
               if r["scenario"] == "pool" and r["shards"] == 1)
    plain = doc["single_process_pop_crc"]
    if row["pop_crc"] != plain:
        return [f"shards=1 pop order crc {row['pop_crc']:#x} != "
                f"single-process crc {plain:#x}"]
    return []


def steady_p99_claim(doc):
    """Continuous batching beats request-level on steady-chat p99 tokens."""
    p99 = {(r["scenario"], r["mode"]): r["p99_token_ms"] for r in doc["rows"]}
    cont, req = p99[("steady", "continuous")], p99[("steady", "request")]
    if cont >= req:
        return [f"continuous p99 token latency ({cont} ms) does not beat "
                f"request-level ({req} ms) on the steady chat scenario"]
    return []


# ---------------------------------------------------------------------------
# the committed benchmarks
# ---------------------------------------------------------------------------

_SHARD_ROWS = ("groups", "invocations", "n_events", "n_epochs",
               "n_envelopes", "merged_crc")
_SHARD_WALL = ("wall_s", "events_per_sec", "scaleout")
_SHARD = dict(seed=7, mode="process", groups=8, smoke_invocations=50_000,
              tracing_invocations=20_000)

BENCHES = {
    "ablation": Bench(
        experiment="fig4_ablation_plus_async_cache",
        baseline="BENCH_ablation.json",
        compat=("experiment", "seed"),
        sections={"ablation": Section(("workload",)),
                  "warm_cache": Section(("workload",))},
        produce=produce_ablation,
        profiles={
            "full": Profile({"seed": 0}),
            "ci": Profile({"seed": 0,
                           "workloads": ("kmeans", "face_identification")},
                          subset=True),
        },
    ),
    "sched": Bench(
        experiment="sched_ablation",
        baseline="BENCH_sched.json",
        compat=("experiment", "seed", "copies"),
        sections={"rows": Section(("discipline", "size_class"), exact={"n"})},
        produce=produce_sched,
        profiles={"full": Profile({"seed": 3, "copies": 4})},
    ),
    "kernel": Bench(
        experiment="kernel_bench",
        baseline="BENCH_kernel.json",
        compat=("experiment", "seed", "events"),
        sections={
            "scenarios": Section(
                ("scenario", "impl"),
                exact={"n_events", "final_now", "timeouts_recycled"},
                ignored={"sched_wall_s", "wall_s", "events_per_sec"}),
            "speedups": Section(("scenario",), ignored={"speedup"}),
            "order": Section(("scenario",),
                             exact={"n_events", "order_n", "order_crc"}),
        },
        produce=produce_kernel,
        profiles={
            "full": Profile({"seed": 7, "events": 1_000_000, "repeat": 2,
                             "quick": False}),
            # order digests run at a fixed size, so they alone are
            # comparable with the million-event baseline
            "ci": Profile({"seed": 7, "events": 100_000, "repeat": 1,
                           "quick": True},
                          sections=("order",), exempt={"events"}),
        },
        checks=(partial(min_speedup, floor=1.5),),
    ),
    "shard": Bench(
        experiment="shard_bench",
        baseline="BENCH_shard.json",
        compat=("experiment", "seed"),
        sections={
            "scaleout": Section(("scenario", "shards"), exact=_SHARD_ROWS,
                                ignored=_SHARD_WALL),
            "smoke": Section(("scenario", "shards"),
                             exact=_SHARD_ROWS + ("pop_crc",),
                             ignored=_SHARD_WALL),
            "tracing": Section(
                ("scenario", "shards"),
                exact={"groups", "invocations", "n_events", "merged_crc",
                       "trace_digest", "n_spans", "n_envelopes"},
                ignored={"events_per_sec_ratio"}),
        },
        produce=produce_shard,
        profiles={
            "full": Profile({**_SHARD, "profile": "full",
                             "shard_counts": (1, 2, 4, 8),
                             "invocations": 1_000_000}),
            "ci": Profile({**_SHARD, "profile": "smoke",
                           "shard_counts": (1, 2, 4)},
                          sections=("smoke", "tracing"), subset=True),
        },
        checks=(shard_invariance, pop_order_identity,
                partial(min_scaleout, floor=1.2)),
        exact_top=("single_process_pop_crc",),
    ),
    "llm": Bench(
        experiment="llm_bench",
        baseline="BENCH_llm.json",
        compat=("experiment", "seed", "copies"),
        sections={"rows": Section(
            ("scenario", "mode"),
            exact={"n_requests", "n_tokens", "n_iterations", "n_preemptions",
                   "n_kv_denials", "n_recomputes", "n_migrations"},
            ignored={"attribution"})},
        produce=produce_llm,
        profiles={"full": Profile({"seed": 0, "copies": 2})},
        checks=(steady_p99_claim,),
    ),
}


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def row_sections(doc: dict) -> set:
    """Top-level keys holding a list of row dicts."""
    return {key for key, value in doc.items()
            if isinstance(value, list) and any(isinstance(r, dict) for r in value)}


def profile_of(bench: Bench, doc: dict) -> str:
    """``ci`` if ``doc`` records a parameter value only ``ci`` sets."""
    full, ci = bench.profiles["full"].params, bench.profile("ci").params
    marks = {k: v for k, v in ci.items() if k in doc and full.get(k) != v}
    return "ci" if marks and all(doc[k] == v for k, v in marks.items()) \
        else "full"


def _key(row: dict, section: Section) -> tuple:
    return tuple(row.get(field) for field in section.identity)


def _label(name: str, key: tuple) -> str:
    return f"{name}[{'/'.join(str(k) for k in key)}]"


def not_comparable(bench: Bench, profile: str, base: dict,
                   fresh: dict) -> list[str]:
    problems = []
    gated = bench.profile(profile)
    for key in bench.compat:
        if key in gated.exempt:
            continue
        if key not in base or key not in fresh:
            side = "baseline" if key not in base else "fresh run"
            problems.append(f"compat key {key!r} missing from the {side}")
        elif base[key] != fresh[key]:
            problems.append(f"compat key {key!r} differs: "
                            f"baseline={base[key]} fresh={fresh[key]}")
    for side, doc in (("baseline", base), ("fresh run", fresh)):
        for name in sorted(row_sections(doc) - set(bench.sections)):
            problems.append(f"unknown section {name!r} in the {side} "
                            f"(not declared for {bench.experiment!r})")
        for name, section in bench.sections.items():
            seen = set()
            for row in doc.get(name, []):
                key = _key(row, section)
                if key in seen:
                    problems.append(f"duplicate row identity "
                                    f"{_label(name, key)} in the {side}")
                seen.add(key)
    if not gated.subset and bench.profile("ci").subset:
        # a subset ci doc records no marker, so it reaches here as full
        for name, section in bench.sections.items():
            fresh_keys = {_key(row, section) for row in fresh.get(name, [])}
            base_keys = {_key(row, section) for row in base.get(name, [])}
            if fresh_keys < base_keys:
                problems.append(
                    f"fresh run has {len(fresh_keys)} of the baseline's "
                    f"{len(base_keys)} {name!r} rows: a full run reproduces "
                    f"every row; gate a ci run with `bench.py check`")
    return problems


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def band_problem(base, fresh) -> Optional[str]:
    if not (_is_number(base) and _is_number(fresh)):
        return f"{base!r} -> {fresh!r} is not a pair of numbers"
    if not (math.isfinite(base) and math.isfinite(fresh)):
        if base == fresh and math.isinf(base):
            return None
        return f"{base} -> {fresh} (non-finite value)"
    band = ABS_TOL + REL_TOL * abs(base)
    delta = fresh - base
    if abs(delta) > band:
        return (f"{base} -> {fresh} "
                f"(delta {delta:+.4f} exceeds band ±{band:.4f})")
    return None


def compare_fields(label: str, base: dict, fresh: dict,
                   section: Section) -> list[str]:
    problems = []
    for field, base_val in base.items():
        if field in section.identity or field in section.ignored:
            continue
        if field not in fresh:
            problems.append(f"{label}.{field}: missing from fresh run")
        elif field in section.exact:
            if fresh[field] != base_val:
                problems.append(f"{label}.{field}: exact value changed "
                                f"{base_val} -> {fresh[field]}")
        else:
            problem = band_problem(base_val, fresh[field])
            if problem:
                problems.append(f"{label}.{field}: {problem}")
    return problems


def compare_section(name: str, section: Section, base_rows: list,
                    fresh_rows: list, subset: bool) -> list[str]:
    problems = []
    base_by_key = {_key(row, section): row for row in base_rows}
    fresh_keys = set()
    for fresh_row in fresh_rows:
        key = _key(fresh_row, section)
        fresh_keys.add(key)
        base_row = base_by_key.get(key)
        if base_row is None:
            problems.append(f"{_label(name, key)}: row missing from baseline")
        else:
            problems += compare_fields(_label(name, key), base_row,
                                       fresh_row, section)
    if not subset:
        problems += [f"{_label(name, key)}: row missing from fresh run"
                     for key in base_by_key if key not in fresh_keys]
    return problems


def attribution_maps(bench: Bench, base: dict, fresh: dict) -> tuple:
    """Per-row ``attribution`` maps of both sides, keyed by row identity."""
    maps = ({}, {})
    for name, section in bench.sections.items():
        for doc, out in zip((base, fresh), maps):
            for row in doc.get(name, []):
                if isinstance(row.get("attribution"), dict):
                    label = "/".join(str(k) for k in _key(row, section))
                    out[label] = row["attribution"]
    return maps


def explain(maps: tuple, out_path: Optional[Path]) -> None:
    """Attribute the regression: print the diff table, maybe write it."""
    rows = diff_attribution(*maps)
    if not rows:
        print("explain: rows carry no attribution maps to diff "
              "(regenerate the bench with tracing enabled)", file=sys.stderr)
    else:
        print("attribution (why the tail moved):", file=sys.stderr)
        for row in rows:
            marker = " <-- regression" if row["regression"] else ""
            print(f"  * {format_diff_row(row)}{marker}", file=sys.stderr)
    if out_path is not None:
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps({"rows": rows}, indent=1,
                                       sort_keys=True) + "\n")
        print(f"explain: wrote {out_path}", file=sys.stderr)


def gate(bench: Bench, profile: str, base: dict, fresh: dict,
         base_name: str, fresh_name: str,
         explain_out: Optional[Path] = None) -> int:
    """Gate ``fresh`` (produced at ``profile``) against ``base``."""
    problems = not_comparable(bench, profile, base, fresh)
    if problems:
        print(f"NOT COMPARABLE: {base_name} vs {fresh_name}", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        return 2
    gated = bench.profile(profile)
    compared = 0
    for name in gated.sections or tuple(bench.sections):
        fresh_rows = fresh.get(name, [])
        compared += len(fresh_rows)
        problems += compare_section(name, bench.sections[name],
                                    base.get(name, []), fresh_rows,
                                    gated.subset)
    top = {field: base[field] for field in bench.exact_top if field in base}
    problems += compare_fields("top-level", top, fresh,
                               Section((), exact=bench.exact_top))
    if compared == 0:
        print("NOT COMPARABLE: fresh run contains no rows", file=sys.stderr)
        return 2
    if problems:
        print(f"REGRESSION: {fresh_name} deviates from {base_name} "
              f"({len(problems)} violation(s)):", file=sys.stderr)
        for p in problems:
            print(f"  - {p}", file=sys.stderr)
        maps = attribution_maps(bench, base, fresh)
        if any(maps) or explain_out is not None:
            explain(maps, explain_out)
        return 1
    print(f"OK: {compared} row(s) of {fresh_name} within "
          f"±({ABS_TOL} + {REL_TOL * 100:g}%) of {base_name} "
          f"({profile} profile)")
    return 0


# ---------------------------------------------------------------------------
# run / check
# ---------------------------------------------------------------------------

def load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"cannot read bench JSON {path}: {exc}")


def write(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path}")


def produce(name: str, profile: str) -> dict:
    bench = BENCHES[name]
    t0 = time.perf_counter()
    fields = bench.produce(**bench.profile(profile).params)
    doc = {"experiment": bench.experiment, **fields,
           "python": platform.python_version(),
           "wall_seconds": round(time.perf_counter() - t0, 2)}
    for section in bench.sections:
        rows = doc.get(section)
        if rows:
            columns = [k for k, v in rows[0].items()
                       if not isinstance(v, (dict, list))]
            print(render_table(f"{name} ({profile}) — {section}", rows, columns))
    return doc


def run_checks(bench: Bench, doc: dict) -> list[str]:
    failures = [problem for check in bench.checks for problem in check(doc)]
    for problem in failures:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    return failures


def cmd_run(name: str, out: Optional[Path]) -> int:
    bench = BENCHES[name]
    doc = produce(name, "full")
    if run_checks(bench, doc):
        print(f"{name}: not written (failed check)", file=sys.stderr)
        return 1
    write(out or REPO_ROOT / bench.baseline, doc)
    return 0


def cmd_compare(baseline: Path, fresh: Path,
                explain_out: Optional[Path]) -> int:
    base, new = load(baseline), load(fresh)
    bench = next((b for b in BENCHES.values()
                  if b.experiment == base.get("experiment")), None)
    if bench is None:
        print(f"NOT COMPARABLE: unknown experiment {base.get('experiment')!r} "
              f"(known: {sorted(b.experiment for b in BENCHES.values())})",
              file=sys.stderr)
        return 2
    return gate(bench, profile_of(bench, new), base, new,
                str(baseline), str(fresh), explain_out)


def cmd_check(names: list[str], out_dir: Path) -> int:
    status = 0
    for name in names:
        bench = BENCHES[name]
        print(f"== check {name} ==")
        doc = produce(name, "ci")
        out = out_dir / bench.baseline
        write(out, doc)
        failed = run_checks(bench, doc)
        code = gate(bench, "ci", load(REPO_ROOT / bench.baseline), doc,
                    bench.baseline, str(out))
        status = max(status, code, 1 if failed else 0)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser(
        "run", help="produce one bench's full profile and run its checks")
    run.add_argument("name", choices=BENCHES)
    run.add_argument("--out", type=Path, default=None,
                     help="output JSON (default: the committed baseline)")
    compare = sub.add_parser("compare", help="gate FRESH against BASE")
    compare.add_argument("baseline", type=Path)
    compare.add_argument("fresh", type=Path)
    compare.add_argument("--explain-out", type=Path, default=None,
                         metavar="PATH",
                         help="write the attribution diff table as JSON")
    check = sub.add_parser(
        "check", help="run the ci profile and gate it against the baseline")
    check.add_argument("names", nargs="+", choices=BENCHES, metavar="NAME")
    check.add_argument("--out-dir", type=Path, default=OUT_DIR,
                       help=f"where fresh docs land (default {OUT_DIR})")
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.name, args.out)
    if args.command == "compare":
        return cmd_compare(args.baseline, args.fresh, args.explain_out)
    return cmd_check(args.names, args.out_dir)


if __name__ == "__main__":
    raise SystemExit(main())
