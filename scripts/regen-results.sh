#!/usr/bin/env bash
# Regenerates the deterministic result files: one mvs-bench bin each (`bins`
# below), writing results/<bin>.json, or results/BENCH_<x>.json for a
# bench_<x> bin. Each is a pure function of the checkout at any MVS_THREADS
# (the three bench_* bins run on the virtual clock and assert their own
# invariants on the way), so a difference from the checked-in copy is a
# behaviour change or a stale file. The two wall-clock results
# (table2_overhead, BENCH_trace) are not listed.
#
#   scripts/regen-results.sh             # rewrite the files in place
#   scripts/regen-results.sh --check     # regenerate, diff against the
#                                        # checked-in copies, put them back;
#                                        # exit 1 on any difference
#   scripts/regen-results.sh --offline [--check]
#                                        # build through scripts/offline-dev.sh
#                                        # (no network, devstubs patch table)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

check=0
cargo=(cargo)
for arg in "$@"; do
  case "${arg}" in
    --check) check=1 ;;
    --offline) cargo=(bash "${repo_root}/scripts/offline-dev.sh") ;;
    *) echo "usage: scripts/regen-results.sh [--offline] [--check]" >&2; exit 2 ;;
  esac
done

bins=(
  fig2_workload fig10_classification fig11_regression fig12_recall
  fig13_latency fig14_horizon table1_config ablation_knn_k ablation_balb
  extension_sync extension_response extension_redundancy
  bench_serve bench_chaos bench_faults
)
names=()
bin_flags=()
for bin in "${bins[@]}"; do
  names+=("${bin/#bench_/BENCH_}")
  bin_flags+=(--bin "${bin}")
done
"${cargo[@]}" build --release --quiet -p mvs-bench "${bin_flags[@]}"

# The bins write results/<name>.json themselves; keep the checked-in copies
# aside so --check can diff against them and put them back.
keep="$(mktemp -d "${repo_root}/results/.regen.XXXXXX")"
trap 'rm -rf "${keep}"' EXIT
for name in "${names[@]}"; do
  cp "results/${name}.json" "${keep}/"
done

for bin in "${bins[@]}"; do
  "${cargo[@]}" run --release --quiet -p mvs-bench --bin "${bin}" > /dev/null
done

status=0
if [[ "${check}" -eq 1 ]]; then
  for name in "${names[@]}"; do
    if ! diff -u "${keep}/${name}.json" "results/${name}.json"; then
      echo "regen-results: results/${name}.json is not what this checkout generates" >&2
      status=1
    fi
    cp "${keep}/${name}.json" "results/${name}.json"
  done
  [[ "${status}" -eq 0 ]] && echo "regen-results: ${#names[@]} result files match"
fi
exit "${status}"
