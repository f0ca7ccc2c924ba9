#!/usr/bin/env bash
# Print the repository's size metric: the number of non-test Rust lines
# under crates/*/src. Each file counts up to (not including) its first
# `#[cfg(test)]` line, so unit-test modules at the end of a file do not
# count; a file without one counts in full.
#
# Usage: .github/nontest-loc.sh [repo-root]   (default: the current dir)
set -euo pipefail
cd "${1:-.}"
find crates -path '*/src/*' -name '*.rs' -print0 \
  | sort -z \
  | xargs -0 awk '
      FNR == 1 { counting = 1 }
      /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
      counting { n++ }
      END { print n + 0 }
    '
