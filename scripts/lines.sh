#!/usr/bin/env bash
# Rust line counts, non-test and test, in total and per crate — the rule
# CHANGES.md entries report lines by.
#
#   scripts/lines.sh
#
# Counted: every `.rs` file under crates/ (except the vendored stand-ins
# in crates/compat), src/, tests/ and examples/. A line is a test line
# when its file sits in a `tests/` directory, or when it comes at or
# after the file's first `#[cfg(test)]`; every other line is non-test.
# The root package (src/, tests/, examples/) is reported as `selest`.
# Prints a report only; it is not a gate.
set -euo pipefail

cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
    echo "usage: scripts/lines.sh (takes no options)" >&2
    exit 2
fi

{
    find crates -path crates/compat -prune -o -name '*.rs' -type f -print
    find src tests examples -name '*.rs' -type f
} | LC_ALL=C sort | while IFS= read -r file; do
    case "$file" in
        crates/*) crate=${file#crates/}; crate=${crate%%/*} ;;
        *) crate=selest ;;
    esac
    case "/$file" in
        */tests/*) in_tests=1 ;;
        *) in_tests=0 ;;
    esac
    awk -v crate="$crate" -v in_tests="$in_tests" '
        !in_tests && !seen && /^[[:space:]]*#\[cfg\(test\)\]/ { seen = 1 }
        { if (in_tests || seen) test++; else code++ }
        END { printf "%s %d %d\n", crate, code, test }
    ' "$file"
done | awk '
    { code[$1] += $2; test[$1] += $3 }
    END { for (c in code) printf "%s %d %d\n", c, code[c], test[c] }
' | LC_ALL=C sort | awk '
    BEGIN { printf "%-14s %10s %10s\n", "crate", "non-test", "test" }
    { printf "%-14s %10d %10d\n", $1, $2, $3; code += $2; test += $3 }
    END { printf "%-14s %10d %10d\n", "total", code, test }
'
