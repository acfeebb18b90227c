#!/usr/bin/env python3
"""Validate an obs dump (<prefix>.stats.json + <prefix>.trace.json).

Checks the two schemas documented in docs/observability.md:
  * ow.obs.stats.v1  — flat counters/gauges/histogram summaries
  * ow.obs.trace.v1  — Chrome trace_event JSON ("X" complete events)

Usage:
  python3 tools/check_obs_json.py PREFIX [--require-spans p1,p2,...]

--require-spans asserts that at least one trace event name starts with each
given prefix (e.g. controller.,merge.,switch. for a full pipeline run).
The trace must also be whole: the stats report no dropped span, and for
every span name in the trace, the trace holds as many events as the
histogram of that name counts (every recorded span folds into it).
Exits 0 when both files validate, 1 otherwise. Stdlib only.
"""

import argparse
import json
import sys

ERRORS = []


def fail(msg):
    ERRORS.append(msg)


def require(cond, msg):
    if not cond:
        fail(msg)
    return cond


def check_uint(obj, key, where):
    require(isinstance(obj.get(key), int) and obj[key] >= 0,
            f"{where}: '{key}' must be a non-negative integer")


def check_stats(doc):
    require(doc.get("schema") == "ow.obs.stats.v1",
            f"stats: schema is {doc.get('schema')!r}")
    require(isinstance(doc.get("enabled"), bool), "stats: 'enabled' not bool")
    for section in ("counters", "gauges", "histograms"):
        if not require(isinstance(doc.get(section), dict),
                       f"stats: '{section}' missing or not an object"):
            continue
        for name, value in doc[section].items():
            where = f"stats: {section}[{name!r}]"
            if section == "histograms":
                if not require(isinstance(value, dict), f"{where} not object"):
                    continue
                for field in ("count", "sum", "max", "p50", "p90", "p99"):
                    check_uint(value, field, where)
                if all(isinstance(value.get(f), int)
                       for f in ("p50", "p90", "p99", "max")):
                    require(value["p50"] <= value["p90"] <= value["p99"]
                            <= value["max"],
                            f"{where}: quantiles not monotone")
            else:
                require(isinstance(value, int), f"{where} not an integer")
    check_uint(doc, "spans_recorded", "stats")
    check_uint(doc, "spans_dropped", "stats")


def check_trace(doc, require_prefixes):
    other = doc.get("otherData")
    if require(isinstance(other, dict), "trace: 'otherData' missing"):
        require(other.get("schema") == "ow.obs.trace.v1",
                f"trace: schema is {other.get('schema')!r}")
    events = doc.get("traceEvents")
    if not require(isinstance(events, list),
                   "trace: 'traceEvents' missing or not a list"):
        return
    seen_names = set()
    for i, ev in enumerate(events):
        where = f"trace: event {i}"
        if not require(isinstance(ev, dict), f"{where} not an object"):
            continue
        require(isinstance(ev.get("name"), str) and ev["name"],
                f"{where}: bad 'name'")
        require(ev.get("ph") == "X", f"{where}: ph is {ev.get('ph')!r}")
        require(isinstance(ev.get("pid"), int), f"{where}: bad 'pid'")
        require(isinstance(ev.get("tid"), int), f"{where}: bad 'tid'")
        for field in ("ts", "dur"):
            require(isinstance(ev.get(field), (int, float))
                    and ev[field] >= 0, f"{where}: bad '{field}'")
        if isinstance(ev.get("name"), str):
            seen_names.add(ev["name"])
    for prefix in require_prefixes:
        require(any(n.startswith(prefix) for n in seen_names),
                f"trace: no span named '{prefix}*' "
                f"(saw {sorted(seen_names)[:10]})")


def check_whole(stats, trace):
    require(stats.get("spans_dropped") == 0,
            f"stats: {stats.get('spans_dropped')} spans dropped; the trace "
            f"is cut short")
    events = trace.get("traceEvents")
    counts = {}
    for ev in events if isinstance(events, list) else []:
        if isinstance(ev, dict) and isinstance(ev.get("name"), str):
            counts[ev["name"]] = counts.get(ev["name"], 0) + 1
    histograms = stats.get("histograms")
    histograms = histograms if isinstance(histograms, dict) else {}
    for name, seen in sorted(counts.items()):
        hist = histograms.get(name)
        if isinstance(hist, dict):
            require(seen == hist.get("count"),
                    f"trace: {seen} '{name}' events, its histogram counts "
                    f"{hist.get('count')}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("prefix", help="dump prefix (as given to --obs-out)")
    parser.add_argument("--require-spans", default="",
                        help="comma-separated span-name prefixes that must "
                             "appear in the trace")
    args = parser.parse_args()

    prefixes = [p for p in args.require_spans.split(",") if p]
    docs = {}
    for suffix, checker in ((".stats.json", check_stats),
                            (".trace.json", None)):
        path = args.prefix + suffix
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            fail(f"{path}: {e}")
            continue
        docs[suffix] = doc
        if checker:
            checker(doc)
        else:
            check_trace(doc, prefixes)
    if len(docs) == 2:
        check_whole(docs[".stats.json"], docs[".trace.json"])

    if ERRORS:
        for err in ERRORS:
            print(f"FAIL {err}", file=sys.stderr)
        return 1
    print(f"OK {args.prefix}.stats.json + .trace.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
