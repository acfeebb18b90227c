#!/usr/bin/env bash
# Byte-for-byte check of the deterministic experiment and example outputs.
#
# Runs every bench/example binary whose stdout repeats exactly from run to
# run and compares the outputs with bench/results/golden_outputs.sha256. A
# change that claims to keep behaviour must keep this passing; a deliberate
# output change re-records the manifest with --update (and says why).
#
#   tools/check_golden_outputs.sh [--update] [build-dir]   (default: build)
set -euo pipefail

update=0
if [ "${1:-}" = "--update" ]; then
  update=1
  shift
fi
build=$(cd "${1:-build}" && pwd)
manifest="$(cd "$(dirname "$0")/.." && pwd)/bench/results/golden_outputs.sha256"

bench=(exp1_query_driven exp2_sketch exp3_dml exp5_resources exp6_collection
       exp8_reset exp9_consistency exp10_window_size ablation_afr_merge
       ablation_out_of_order)
examples=(quickstart anomaly_detection variable_windows flow_accounting
          dml_monitoring multi_tenant loss_detection fabric_localization)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
cd "$out"
for b in "${bench[@]}"; do "$build/bench/$b" > "$b.out"; done
for b in "${examples[@]}"; do "$build/examples/$b" > "$b.out"; done

if [ "$update" = 1 ]; then
  LC_ALL=C sha256sum -- *.out > "$manifest"
  echo "wrote $manifest"
else
  sha256sum -c "$manifest"
fi
