#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload.
#
#   bash bench-e2e/run.sh --workload s1-balb --seed 1 --seconds 30 --trace 0
#
# Run from the root of a checkout. The build goes through
# scripts/offline-dev.sh, i.e. always through the `devstubs/` patch table, so
# the virtual numbers are a function of the checkout alone, not of whatever
# registry cache the host happens to have. Everything it writes stays inside
# the checkout: the target directory (CARGO_TARGET_DIR, else
# bench-e2e/target) with the generated CARGO_HOME inside it, a Cargo.lock
# next to the manifest, and bench-e2e/out/.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
for need in crates/mvs-sim/Cargo.toml devstubs/rand/Cargo.toml scripts/offline-dev.sh; do
  if [[ ! -f "${root}/${need}" ]]; then
    echo "bench-e2e: ${need} is missing - the program under test is not in this checkout" >&2
    exit 2
  fi
done

target="${CARGO_TARGET_DIR:-${root}/bench-e2e/target}"
[[ "${target}" = /* ]] || target="${PWD}/${target}"
export CARGO_TARGET_DIR="${target}"

bash "${root}/scripts/offline-dev.sh" build --release --quiet \
  --manifest-path "${root}/bench-e2e/Cargo.toml" >&2

export BENCH_E2E_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_E2E_GIT_REV="$(git -C "${root}" rev-parse --short HEAD 2>/dev/null || echo unknown)"
cd "${root}"
exec "${target}/release/bench-e2e" "$@"
