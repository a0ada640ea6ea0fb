#!/usr/bin/env python3
"""Perf trendline gate: compare a bench_results.jsonl against the archived
baseline and fail on regression.

Each bench binary prints one `BENCH_JSON {...}` line; CI collects them into
bench_results.jsonl (one JSON object per line, keyed by "bench"). This
script compares a curated set of headline metrics against
bench/baseline.jsonl and exits non-zero if any regresses by more than the
tolerance (default 10%).

Gated metrics:
  grid_checkpoint.heat_fault_free_ms     lower is better (heat wall time)
  grid_checkpoint.incremental_write_ratio lower is better (ckpt dedup)
  migration.mig_drop0_p50_us             lower is better (migration p50)
  migration.pack_p50_us                  lower is better
  vm.hot_loop_native_ms                  lower is better (native tier)
  vm.native_speedup                      higher is better
  vm.spec_loop_native_speedup            higher is better (stores in a level)
  rank_density.ranks_per_core            higher is better (fiber density)
  rank_density.coalesce_ratio            higher is better (frames/batch)
  rank_density.perrank_cost_ratio        lower is better (dense vs small)
  ckpt_engine.small_put_per_s            higher is better (tiny-ckpt rate)
  ckpt_engine.small_put_extents          lower is better (files per 10^6)

Metrics missing from either file, non-positive baselines, and native-tier
metrics on hosts where the vm record says jit_supported=0 are skipped with
a notice, not failed: a bench that stops *reporting* is caught by the
separate BENCH_JSON validation step.

Usage:
  python3 scripts/bench_gate.py --current bench_results.jsonl \
      [--baseline bench/baseline.jsonl] [--tolerance 0.10]
"""

import argparse
import json
import sys

# (bench, key, direction) — direction "lower" or "higher" is better.
# rank_density baselines are deliberate floors, not measured points:
# ranks_per_core is a config constant (it regresses only if the dense run
# stops completing), and coalesce_ratio's baseline of 50 is well under the
# ~90+ a healthy run batches, so the gate trips on "coalescing broke"
# (ratio collapses toward 1) rather than on scheduler timing jitter.
# ckpt_engine baselines are likewise a floor (puts/s well under the
# measured rate, tripping only on an order-of-magnitude collapse such as
# an accidental fsync-per-put) and a ceiling (10^6 small checkpoints must
# leave <= ~1000 extent files; the flat layout would leave 10^6).
GATED = [
    ("grid_checkpoint", "heat_fault_free_ms", "lower"),
    ("grid_checkpoint", "incremental_write_ratio", "lower"),
    ("migration", "mig_drop0_p50_us", "lower"),
    ("migration", "pack_p50_us", "lower"),
    ("vm", "hot_loop_native_ms", "lower"),
    ("vm", "native_speedup", "higher"),
    ("vm", "spec_loop_native_speedup", "higher"),
    ("rank_density", "ranks_per_core", "higher"),
    ("rank_density", "coalesce_ratio", "higher"),
    ("rank_density", "perrank_cost_ratio", "lower"),
    ("ckpt_engine", "small_put_per_s", "higher"),
    ("ckpt_engine", "small_put_extents", "lower"),
]

# Metrics only meaningful when the native tier actually ran.
NEEDS_JIT = {("vm", "hot_loop_native_ms"), ("vm", "native_speedup"),
             ("vm", "spec_loop_native_speedup")}


def load_jsonl(path):
    """Map bench name -> record (last record wins if a bench repeats)."""
    records = {}
    with open(path) as f:
        for i, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                sys.exit(f"{path}:{i}: malformed JSON: {e}")
            if "bench" not in rec:
                sys.exit(f"{path}:{i}: record missing 'bench' key")
            records[rec["bench"]] = rec
    return records


def jit_ran(records):
    return records.get("vm", {}).get("jit_supported", 0) == 1


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--current", required=True,
                    help="bench_results.jsonl from this run")
    ap.add_argument("--baseline", default="bench/baseline.jsonl",
                    help="archived baseline jsonl (default: %(default)s)")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed fractional regression (default: %(default)s)")
    args = ap.parse_args()

    current = load_jsonl(args.current)
    baseline = load_jsonl(args.baseline)
    native_ok = jit_ran(current) and jit_ran(baseline)

    failures = []
    checked = 0
    for bench, key, direction in GATED:
        label = f"{bench}.{key}"
        if (bench, key) in NEEDS_JIT and not native_ok:
            print(f"SKIP {label}: native tier did not run on both sides")
            continue
        cur_rec, base_rec = current.get(bench), baseline.get(bench)
        if cur_rec is None or base_rec is None:
            side = "current" if cur_rec is None else "baseline"
            print(f"SKIP {label}: no '{bench}' record in {side}")
            continue
        if key not in cur_rec or key not in base_rec:
            side = "current" if key not in cur_rec else "baseline"
            print(f"SKIP {label}: key missing in {side}")
            continue
        cur, base = float(cur_rec[key]), float(base_rec[key])
        if base <= 0:
            print(f"SKIP {label}: non-positive baseline {base}")
            continue
        checked += 1
        ratio = cur / base
        if direction == "lower":
            bad = ratio > 1 + args.tolerance
            delta = ratio - 1
        else:
            bad = ratio < 1 - args.tolerance
            delta = 1 - ratio
        verdict = "FAIL" if bad else "ok"
        print(f"{verdict:4} {label}: {cur:g} vs baseline {base:g} "
              f"({'+' if delta >= 0 else ''}{delta * 100:.1f}% "
              f"{'regression' if delta > 0 else 'improvement'}, "
              f"{direction} is better)")
        if bad:
            failures.append(label)

    if checked == 0:
        sys.exit("bench gate checked nothing: every gated metric was skipped")
    if failures:
        sys.exit(f"bench gate FAILED: {len(failures)} metric(s) regressed "
                 f">{args.tolerance * 100:.0f}%: {', '.join(failures)}")
    print(f"bench gate passed: {checked} metric(s) within "
          f"{args.tolerance * 100:.0f}% of baseline")


if __name__ == "__main__":
    main()
