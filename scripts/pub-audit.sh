#!/usr/bin/env bash
# Lists every public item of a workspace crate that nothing outside the
# crate names: for each crate, the `pub fn|struct|enum|trait|type|const`
# names declared under its src/ that do not occur as a word in any other
# .rs file under crates/, src/, tests/, examples/ or bench-e2e/src/ (other
# crates' sources, every tests/ and benches/ directory, the crate's own
# included). A listed item is a candidate for `pub(crate)` or deletion.
#
# Word matching errs towards silence: a common name (`new`, `len`) or one
# mentioned in another crate's comment counts as referenced.
#
#   scripts/pub-audit.sh                                  # print the list
#   scripts/pub-audit.sh | diff scripts/pub-audit.expected -   # what CI runs
#
# After deleting or privatising a listed item, or adding a public item only
# its own crate uses on purpose, rewrite scripts/pub-audit.expected with
# the new output; the file should only ever get shorter.
set -euo pipefail
export LC_ALL=C

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

all_files="$(find crates src tests examples bench-e2e/src -name '*.rs' | sort)"
for own in crates/*/src src; do
  declared="$(grep -rhoE --include='*.rs' \
    '^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*' \
    "${own}" | awk '{print $NF}' | sort -u)"
  used_elsewhere="$(grep -v "^${own}/" <<<"${all_files}" \
    | xargs grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"
  comm -23 <(echo "${declared}") <(echo "${used_elsewhere}") | sed "s|^|${own%/src} |"
done
