#!/usr/bin/env bash
# A/B of two commits on the end-to-end benchmark: the procedure of
# bench-e2e/README.md "Comparing two commits", start to finish.
#
#   scripts/bench-ab.sh <parent-rev> [--workloads "w1 w2"] [--trace 0|1]
#                       [--pairs 10] [--seconds N] [--dir <scratch>]
#
# The parent is <parent-rev> exported (git archive, so nothing is added to
# .git) under the scratch directory; the change is this checkout as it stands,
# uncommitted edits included. Each side is built once, release and offline,
# into its own target directory there, and its `bench-e2e` binary copied out.
# Pair i runs both binaries on seed i from their own checkouts, the parent
# first when i is odd and the change first when it is even. Then, per
# workload and metric: both medians with quartiles, how many pairs each side
# won and how many tied, the bound BENCHMARK.json fixes, and a verdict by the
# rule of the choosing-metrics guide; and, seed by seed, whether the
# `digests:` lines agree.
#
#   --workloads  names from BENCHMARK.json (default: all of them)
#   --trace      0: the end-to-end list over the whole ensemble (default)
#                1: the per-layer ledger - host.*, layer times, serve layer
#   --pairs      seeds 1..N (default 10, the fewest a claim may rest on)
#   --seconds    run length (default: BENCHMARK.json's run_seconds)
#   --dir        scratch directory, outside the checkout
#                (default: ${TMPDIR:-/tmp}/mvs-bench-ab)
#
# Reads BENCHMARK.json, writes nothing under bench-e2e/ but what a benchmark
# run itself leaves there (out/, Cargo.lock - both ignored). Every report is
# kept in <scratch>/runs/. Do not compile anything else while it measures;
# ten pairs of four workloads take about an hour at 30 s.
#
# Smoke (builds both sides, then about a minute):
#   scripts/bench-ab.sh HEAD --pairs 1 --seconds 1 --workloads serve-chaos
set -euo pipefail

usage() { sed -n '2,/^set -euo pipefail$/{/^set -euo pipefail$/d;s/^# \{0,1\}//;p;}' "${BASH_SOURCE[0]}"; }

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
parent_rev="" workloads="" trace=0 pairs=10 seconds="" dir="${TMPDIR:-/tmp}/mvs-bench-ab"
while (($#)); do
  case "$1" in
    -h | --help) usage; exit 0 ;;
    --workloads) workloads="${2:?--workloads needs a value}"; shift 2 ;;
    --trace) trace="${2:?--trace needs a value}"; shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a value}"; shift 2 ;;
    --seconds) seconds="${2:?--seconds needs a value}"; shift 2 ;;
    --dir) dir="${2:?--dir needs a value}"; shift 2 ;;
    -*) echo "bench-ab: unknown option $1 (see --help)" >&2; exit 1 ;;
    *)
      if [[ -n "${parent_rev}" ]]; then echo "bench-ab: one parent revision, got '${parent_rev}' and '$1'" >&2; exit 1; fi
      parent_rev="$1"
      shift ;;
  esac
done
if [[ -z "${parent_rev}" ]]; then usage >&2; exit 1; fi
if [[ "${trace}" != 0 && "${trace}" != 1 ]]; then echo "bench-ab: --trace takes 0 or 1" >&2; exit 1; fi
if ! [[ "${pairs}" =~ ^[1-9][0-9]*$ ]]; then echo "bench-ab: --pairs takes a positive integer" >&2; exit 1; fi

cd "${root}"
sha="$(git rev-parse --short --verify "${parent_rev}^{commit}")"
seconds="${seconds:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
workloads="${workloads:-$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')}"
read -r -a workload_list <<< "${workloads}"
mkdir -p "${dir}"
dir="$(cd "${dir}" && pwd)"
case "${dir}/" in "${root}/"*) echo "bench-ab: --dir must lie outside the checkout" >&2; exit 1 ;; esac

# The parent tree is keyed by commit: its files carry the commit's time, so
# one directory reused for another revision could look built to cargo.
parent="${dir}/parent-${sha}"
if [[ ! -f "${parent}/bench-e2e/Cargo.toml" ]]; then
  rm -rf "${parent}"
  mkdir -p "${parent}"
  git archive "${sha}" | tar -x -C "${parent}"
fi
if [[ ! -f "${parent}/bench-e2e/Cargo.toml" ]]; then
  echo "bench-ab: ${sha} has no bench-e2e/ to compare against" >&2
  exit 2
fi

build() { # <checkout> <target dir> <where the binary goes>
  echo "bench-ab: building $1" >&2
  CARGO_TARGET_DIR="$2" bash "$1/scripts/offline-dev.sh" build --release --quiet \
    --manifest-path "$1/bench-e2e/Cargo.toml" >&2
  cp "$2/release/bench-e2e" "$3"
}
build "${parent}" "${parent}-target" "${dir}/bench-e2e.parent"
build "${root}" "${dir}/change-target" "${dir}/bench-e2e.change"

runs="${dir}/runs"
mkdir -p "${runs}"
BENCH_E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_E2E_RUSTC
head_rev="$(git rev-parse --short HEAD)+"
run_side() { # <side> <checkout> <rev> <workload> <seed>
  echo "bench-ab: $4 seed $5: $1" >&2
  (cd "$2" && BENCH_E2E_GIT_REV="$3" "${dir}/bench-e2e.$1" --workload "$4" --seed "$5" \
    --seconds "${seconds}" --trace "${trace}") > "${runs}/$1.$4.$5.t${trace}.txt" 2>&1 ||
    echo "bench-ab: $1 failed on $4 seed $5 (see ${runs}/$1.$4.$5.t${trace}.txt)" >&2
}
for workload in "${workload_list[@]}"; do
  for ((seed = 1; seed <= pairs; seed++)); do
    if ((seed % 2)); then
      run_side parent "${parent}" "${sha}" "${workload}" "${seed}"
      run_side change "${root}" "${head_rev}" "${workload}" "${seed}"
    else
      run_side change "${root}" "${head_rev}" "${workload}" "${seed}"
      run_side parent "${parent}" "${sha}" "${workload}" "${seed}"
    fi
  done
done

python3 - "${runs}" "${trace}" "${pairs}" "${sha}" "${workload_list[@]}" <<'PY'
import json, re, statistics, sys

runs, trace, pairs, sha, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4], sys.argv[5:]
bench = json.load(open("BENCHMARK.json"))
seeds = range(1, pairs + 1)
# Reported beside BENCHMARK.json's lists: what every report prints, and the
# envelope and serve-layer lines that only `--trace 1` prints.
extra = [{"name": "host.camera_frames_per_s", "better": "higher"},
         {"name": "host.step_ns_p50", "better": "lower"},
         {"name": "sim.latency_ms", "better": "lower"}]
if trace == "1":
    extra = bench["per_layer"] + [
        {"name": "host.envelope_s", "better": "lower"},
        {"name": "sim.serve.recover_s", "better": "lower"},
        {"name": "sim.serve.bookkeeping_share", "better": "lower"},
        {"name": "sim.serve.snapshot_ns", "better": "lower"},
        {"name": "sim.serve.snapshot_bytes", "better": "lower"}]

def load(side, w, seed):
    """Every `name value unit` line of a report, the envelope, the digests
    line, and the share of slots that failed; None if the run died."""
    try:
        report = open(f"{runs}/{side}.{w}.{seed}.t{trace}.txt").read().splitlines()
        result = json.loads(report[-1])
    except (OSError, ValueError, IndexError):
        return None
    values = {k: v["value"] for k, v in result["metrics"].items()}
    digests = None
    for line in report:
        words = line.split()
        if len(words) == 3 and re.fullmatch(r"[a-z_0-9.]+", words[0]):
            try:
                values.setdefault(words[0], float(words[1]))
            except ValueError:
                pass
        if words[:1] == ["digests:"]:
            digests = words[1:]
        envelope = re.search(r"envelope ([0-9.]+) \(setup", line)
        if envelope:
            values["host.envelope_s"] = float(envelope.group(1))
    failed = result["failed"] / max(result["attempted"], 1)
    if not result["correct"]:
        failed = max(failed, 1.0 / max(result["attempted"], 1))
    return values, digests, failed

def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3

def verdict(m, a, b, wins, losses):
    """The choosing-metrics rule: a gain needs nine pairs in ten (ties for
    neither) and medians further apart than the parent's quartiles; a
    bounded metric regresses when the change's median is worse by more than
    the bound, and is unresolved when the parent's spread exceeds it."""
    (a1, a2, a3), (_, b2, _) = a, b
    lower = m["better"] == "lower"
    gap = (a2 - b2) if lower else (b2 - a2)  # positive: the change is better
    bound = m.get("bound")
    if wins + losses == 0:
        return "equal"
    if wins >= 0.9 * pairs and gap > a3 - a1:
        return "gain" if pairs >= 10 else "better (a claim needs ten pairs)"
    if bound is not None and a2 != 0 and -gap / abs(a2) > bound:
        return "WORSE than bound"
    if bound is not None and a2 != 0 and (a3 - a1) / abs(a2) > bound and losses:
        return "unresolved"
    return "within bound" if bound is not None else ""

print(f"parent {sha} vs this checkout, --trace {trace}, {pairs} pair(s), seeds 1..{pairs}")
print()
print("| workload | metric | better | bound | parent: median (q1 .. q3) "
      "| change: median (q1 .. q3) | change vs parent | wins / losses / ties | verdict |")
print("|---|---|---|---|---|---|---|---|---|")
notes = []
for w in workloads:
    loaded = {side: [load(side, w, seed) for seed in seeds] for side in ("parent", "change")}
    dead = [(side, seed) for side in loaded for seed, r in zip(seeds, loaded[side]) if r is None]
    if dead:
        notes.append(f"{w}: no result from " + ", ".join(f"{s} seed {n}" for s, n in dead))
        continue
    for m in bench["end_to_end"] + extra:
        name = m["name"]
        a = [r[0].get(name) for r in loaded["parent"]]
        b = [r[0].get(name) for r in loaded["change"]]
        if None in a or None in b:
            continue  # not printed for this workload or trace level
        lower = m["better"] == "lower"
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        ties = sum(x == y for x, y in zip(a, b))
        qa, qb = quartiles(a), quartiles(b)
        delta = f"{(qb[1] - qa[1]) / abs(qa[1]):+.2%}" if qa[1] else f"{qb[1] - qa[1]:+.6g}"
        print(f"| {w} | {name} | {m['better']} | {m.get('bound', '')} "
              f"| {qa[1]:.6g} ({qa[0]:.6g} .. {qa[2]:.6g}) | {qb[1]:.6g} ({qb[0]:.6g} .. {qb[2]:.6g}) "
              f"| {delta} | {wins} / {pairs - wins - ties} / {ties} "
              f"| {verdict(m, qa, qb, wins, pairs - wins - ties)} |")
    differ = [seed for seed, x, y in zip(seeds, loaded["parent"], loaded["change"]) if x[1] != y[1]]
    notes.append(f"{w}: digests: " + (f"DIFFER on seed(s) {differ}" if differ
                                      else f"equal on all {pairs} seed(s)"))
    for side in ("parent", "change"):
        share = max(r[2] for r in loaded[side])
        if share:
            notes.append(f"{w}: {side} failed up to {share:.2%} of its slots in a run")
print()
print("\n".join(notes))
PY
