#!/usr/bin/env python3
"""Bench regression gate.

Compares a freshly produced bench JSON (BENCH_pipeline.json /
BENCH_merge.json schema family: top-level "results" list of row objects)
against the committed baseline in bench/results/. Three metric families
are gated, all lower-is-better (shrinking is always good):

  * latency: any row field whose name contains "ns_per", gated
    relatively (--warn-pct / --fail-pct).
  * allocation counts: any row field whose name contains "allocs_per"
    (emitted by OW_ALLOC_TRACE builds), gated with a zero-aware absolute
    floor on top of the relative thresholds — a baseline of 0.0000
    allocs/record means the steady state is allocation-free, and ANY
    fresh allocation fails regardless of percentages. Rows missing
    allocs fields are skipped (normal builds don't emit them) unless
    --require-allocs is set, which the CI alloc-gate job uses so a
    silently untraced build cannot pass.
  * byte sizes: any row field whose name contains "bytes" — checkpoint
    and snapshot footprints, which are deterministic for a fixed trace.
    Gated relatively like latency; growth beyond --fail-pct fails, any
    shrink passes (and is the direction the encodings optimize for).
    NOT in the default --metrics set: only jobs whose byte metrics are
    deterministic (lifetime-smoke) opt in with --metrics=bytes.

Throughput fields ride along informationally.

Noise: pass --fresh once per run of the bench. With several runs the gate
reads each metric's median over them and prints their min-max spread, so
one run from a loaded stretch of a shared host cannot fail it alone. With
a single --fresh the median is that run's value.

Exit codes: 0 ok (warnings allowed), 1 regression beyond the fail
threshold or malformed/missing input. A row present in the baseline but
absent from any fresh run is a failure — silently dropping a workload
must not pass the gate.

Usage:
  tools/check_bench_regression.py --fresh BENCH_pipeline.json \
      [--fresh BENCH_pipeline.2.json ...] \
      --baseline bench/results/BENCH_pipeline.json \
      [--warn-pct 10] [--fail-pct 25] [--require-allocs]
"""

import argparse
import json
import statistics
import sys


def row_key(row):
    """Identity of a result row: its workload name."""
    return (("workload", row["workload"]),) if "workload" in row else ()


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"error: cannot read {path}: {e}")
    rows = doc.get("results")
    if not isinstance(rows, list) or not rows:
        sys.exit(f"error: {path} has no 'results' rows")
    indexed = {}
    for row in rows:
        key = row_key(row)
        if not key:
            sys.exit(f"error: {path}: row without a workload: {row}")
        if key in indexed:
            sys.exit(f"error: {path}: duplicate row identity {key}")
        indexed[key] = row
    return indexed


def fmt_key(key):
    return ",".join(f"{f}={v}" for f, v in key)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--fresh", required=True, action="append",
                    help="bench JSON from one run; repeat once per run to "
                         "gate on their median")
    ap.add_argument("--baseline", required=True, help="committed baseline JSON")
    ap.add_argument("--warn-pct", type=float, default=10.0)
    ap.add_argument("--fail-pct", type=float, default=25.0)
    ap.add_argument("--require-allocs", action="store_true",
                    help="fail when a baseline allocs_per field is missing "
                         "from the fresh row (alloc-gate CI job)")
    ap.add_argument("--metrics", default="latency,allocs",
                    help="comma list of metric families to gate: latency "
                         "(ns_per), allocs (allocs_per) and/or bytes "
                         "(checkpoint/snapshot sizes; shrink-is-good, "
                         "deterministic — opt-in). The alloc-gate job passes "
                         "--metrics=allocs so a traced build on a noisy "
                         "runner is not double-gated on wall time; the "
                         "lifetime-smoke job passes --metrics=bytes.")
    args = ap.parse_args()
    families = set(args.metrics.split(","))
    unknown = families - {"latency", "allocs", "bytes"}
    if unknown:
        sys.exit(f"error: unknown --metrics families: {sorted(unknown)}")

    fresh_runs = [load_rows(path) for path in args.fresh]
    baseline = load_rows(args.baseline)

    failures = warnings = compared = 0
    for key, base_row in sorted(baseline.items()):
        fresh_rows = [run.get(key) for run in fresh_runs]
        if None in fresh_rows:
            print(f"FAIL [{fmt_key(key)}] missing from fresh results")
            failures += 1
            continue
        for field, base_val in base_row.items():
            is_allocs = "allocs_per" in field
            is_latency = "ns_per" in field and not is_allocs
            is_bytes = "bytes" in field and not (is_allocs or is_latency)
            if is_latency and "latency" not in families:
                continue
            if is_allocs and "allocs" not in families:
                continue
            if is_bytes and "bytes" not in families:
                continue
            if not (is_latency or is_allocs or is_bytes):
                continue
            values = [row.get(field) for row in fresh_rows]
            if not all(isinstance(v, (int, float)) for v in values):
                if is_allocs and not args.require_allocs:
                    # Normal (untraced) builds legitimately omit alloc
                    # counts; only the alloc-gate job demands them.
                    print(f"skip [{fmt_key(key)}] {field}: not emitted "
                          f"(untraced build)")
                    continue
                print(f"FAIL [{fmt_key(key)}] {field}: missing from fresh row")
                failures += 1
                continue
            if not isinstance(base_val, (int, float)):
                continue
            fresh_val = statistics.median(values)
            spread = ""
            if len(values) > 1:
                digits = 4 if is_allocs else 1
                spread = (f" (median of {len(values)}, min "
                          f"{min(values):.{digits}f} max "
                          f"{max(values):.{digits}f})")
            if is_allocs:
                # Zero-aware absolute floor: a 0-alloc baseline tolerates
                # rounding noise only; nonzero baselines also get the
                # relative thresholds.
                fail_at = base_val + max(0.01, base_val * args.fail_pct / 100)
                warn_at = base_val + max(0.005, base_val * args.warn_pct / 100)
                compared += 1
                line = (f"[{fmt_key(key)}] {field}: baseline {base_val:.4f} "
                        f"fresh {fresh_val:.4f}{spread}")
                if fresh_val > fail_at:
                    print("FAIL " + line)
                    failures += 1
                elif fresh_val > warn_at:
                    print("WARN " + line)
                    warnings += 1
                else:
                    print("  ok " + line)
                continue
            if base_val <= 0:
                continue
            delta_pct = 100.0 * (fresh_val - base_val) / base_val
            compared += 1
            line = (f"[{fmt_key(key)}] {field}: baseline {base_val:.1f} "
                    f"fresh {fresh_val:.1f} ({delta_pct:+.1f}%){spread}")
            if delta_pct > args.fail_pct:
                print("FAIL " + line)
                failures += 1
            elif delta_pct > args.warn_pct:
                print("WARN " + line)
                warnings += 1
            else:
                print("  ok " + line)

    if compared == 0:
        sys.exit("error: no ns_per/allocs_per/bytes metrics compared — "
                 "schema mismatch?")
    print(f"compared {compared} metrics: {failures} fail, {warnings} warn "
          f"(warn >{args.warn_pct:g}%, fail >{args.fail_pct:g}%)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
