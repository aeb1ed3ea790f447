#!/usr/bin/env bash
# Lists every public item of a workspace crate that nothing outside the
# crate's library names: for each crate, the `pub fn|struct|enum|trait|type|
# const` names declared under its src/ (src/bin/ aside) that do not occur as
# a word in any other .rs file under crates/, src/, tests/, examples/ or
# bench-e2e/src/. A crate's own src/bin/, benches/ and tests/ are callers of
# its library, like every other crate's sources. A listed item is a
# candidate for `pub(crate)` or deletion.
#
# Lines that are only a `//` comment do not count as a reference. Word
# matching still errs towards silence: a common name (`new`, `len`) that
# anything else declares or calls counts as referenced.
#
#   scripts/pub-audit.sh            # print the list
#   scripts/pub-audit.sh --check    # what CI runs: diff against
#                                   # scripts/pub-audit.expected
#
# Every line of scripts/pub-audit.expected is `<crate> <name>  # <reason the
# item stays public>`; --check ignores the reasons. After deleting or
# privatising a listed item, drop its line; the file only ever gets shorter.
set -euo pipefail
export LC_ALL=C

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "${repo_root}"

audit() {
  local all_files own declared used_elsewhere
  all_files="$(find crates src tests examples bench-e2e/src -name '*.rs' | sort)"
  for own in crates/*/src src; do
    # A crate that declares no plain-`pub` item makes grep exit 1.
    declared="$(find "${own}" -name '*.rs' -not -path "${own}/bin/*" -print0 \
      | { xargs -0 grep -hoE \
        '^[[:space:]]*pub ((const|unsafe|async) )*(fn|struct|enum|trait|type|const) [A-Za-z_][A-Za-z0-9_]*' \
        || true; } \
      | awk '{print $NF}' | sort -u)"
    [[ -n "${declared}" ]] || continue
    used_elsewhere="$(awk -v own="${own}/" -v bin="${own}/bin/" \
        'index($0, own) != 1 || index($0, bin) == 1' <<<"${all_files}" \
      | xargs grep -hvE '^[[:space:]]*//' \
      | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u)"
    comm -23 <(echo "${declared}") <(echo "${used_elsewhere}") | sed "s|^|${own%/src} |"
  done
}

case "${1:-}" in
  "") audit ;;
  --check) diff <(sed -E 's/[[:space:]]*#.*$//' scripts/pub-audit.expected) <(audit) ;;
  *) echo "usage: scripts/pub-audit.sh [--check]" >&2; exit 2 ;;
esac
