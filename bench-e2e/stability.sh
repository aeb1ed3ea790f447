#!/usr/bin/env bash
# Measures how steady the benchmark is: two back-to-back sets of ten runs per
# workload (seeds 1 to 10 in both sets, `run_seconds` each), then, per
# workload and end-to-end metric, each set's median and quartiles,
# IQR / median against the metric's bound, and the drift between the two
# medians - and the same for the three headline per-layer metrics every
# report prints (no bound). About 45 minutes.
#
#   bash bench-e2e/stability.sh
#
# Quartiles are Python's statistics.quantiles(values, n=4), the same call the
# driver makes. The reports are kept under bench-e2e/out/stability/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${root}"

out="bench-e2e/out/stability"
mkdir -p "${out}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"

for set in 1 2; do
  for workload in s1-balb city128 serve-steady serve-chaos; do
    for seed in 1 2 3 4 5 6 7 8 9 10; do
      echo "set ${set}: ${workload} seed ${seed}" >&2
      bash bench-e2e/run.sh --workload "${workload}" --seed "${seed}" \
        --seconds "${seconds}" --trace 0 > "${out}/set${set}.${workload}.${seed}.txt"
    done
  done
done

python3 - "${out}" <<'PY'
import json, statistics, sys

out = sys.argv[1]
bench = json.load(open("BENCHMARK.json"))
seeds = range(1, 11)
headline = [{"name": "host.camera_frames_per_s", "better": "higher"},
            {"name": "host.step_ns_p50", "better": "lower"},
            {"name": "sim.latency_ms", "better": "lower"}]

def load(s, w, seed):
    report = open(f"{out}/set{s}.{w}.{seed}.txt").read().splitlines()
    run = json.loads(report[-1])
    assert run["correct"] and run["failed"] == 0, (s, w, seed)
    values = {k: v["value"] for k, v in run["metrics"].items()}
    for line in report:
        words = line.split()
        if len(words) == 3 and words[0] in (m["name"] for m in headline):
            values[words[0]] = float(words[1])
    return values

print("| workload | metric | bound | set 1: median (q1 .. q3) | IQR/median "
      "| set 2: median (q1 .. q3) | IQR/median | drift | bits equal |")
print("|---|---|---|---|---|---|---|---|---|")
worst = 0.0
for w in (w["name"] for w in bench["workloads"]):
    runs = {s: [load(s, w, seed) for seed in seeds] for s in (1, 2)}
    for m in bench["end_to_end"] + headline:
        name, bound = m["name"], m.get("bound")
        cells, medians = [], []
        for s in (1, 2):
            q1, q2, q3 = statistics.quantiles([r[name] for r in runs[s]], n=4)
            spread = (q3 - q1) / q2
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            medians.append(q2)
            cells.append(f"{q2:.6g} ({q1:.6g} .. {q3:.6g}) | {spread:.4f}")
        # Drift: how much worse the second set's median is than the first's.
        a, b = medians
        drift = (b - a) / a if m["better"] == "lower" else (a - b) / a
        if bound:
            worst = max(worst, drift / bound)
        # Exact metrics must repeat bit for bit, seed by seed.
        exact = name.startswith("sim") or name == "allocs_per_step"
        same = all(x[name] == y[name] for x, y in zip(runs[1], runs[2]))
        print(f"| {w} | {name} | {bound or 'none'} | " + " | ".join(cells)
              + f" | {drift:+.4f} | {('yes' if same else 'NO') if exact else ''} |")
print()
print(f"worst end-to-end spread or drift, as a share of its bound: {worst:.3f}")
PY
