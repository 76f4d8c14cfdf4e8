#!/usr/bin/env bash
# doclint.sh — documentation lint.
#
# Fails when:
#   1. gofmt would reformat any file;
#   2. go vet reports anything;
#   3. any internal/ package (nested ones included) lacks a real
#      package comment ("// Package <name> ..." above the package
#      clause), or any cmd/ package lacks a "// Command <name> ..."
#      comment;
#   4. any exported top-level symbol in internal/tenant,
#      internal/defense, internal/specstr, internal/cache/model,
#      internal/artifact, internal/campaign or internal/obs (func,
#      method, type, var, const) has no doc comment.
#
# Exit codes: 0 = clean, 1 = lint findings, 2 = harness error.
set -u
cd "$(dirname "$0")/.."
fail=0

out=$(gofmt -l .) || exit 2
if [ -n "$out" ]; then
    echo "doclint: gofmt needed on:" >&2
    echo "$out" >&2
    fail=1
fi

if ! go vet ./...; then
    fail=1
fi

for d in internal/*/ internal/*/*/; do
    ls "$d"*.go >/dev/null 2>&1 || continue # no Go files (e.g. testdata)
    pkg=$(basename "$d")
    if ! grep -q "^// Package $pkg" "$d"*.go; then
        echo "doclint: ${d%/} has no package comment" >&2
        fail=1
    fi
done

# Every command documents itself: the main package comment must open
# with "// Command <name>" so `go doc ./cmd/<name>` explains the tool.
for d in cmd/*/; do
    ls "$d"*.go >/dev/null 2>&1 || continue
    cmd=$(basename "$d")
    if ! grep -q "^// Command $cmd" "$d"*.go; then
        echo "doclint: ${d%/} has no \"// Command $cmd\" comment" >&2
        fail=1
    fi
done

# Exported-symbol doc audit for the declarative model registries:
# every top-level exported declaration must be immediately preceded by
# a comment line.
for f in internal/tenant/*.go internal/defense/*.go internal/specstr/*.go internal/cache/model/*.go internal/artifact/*.go internal/campaign/*.go internal/obs/*.go; do
    case "$f" in *_test.go) continue ;; esac
    awk -v file="$f" '
        # Top-level exported funcs/types/vars/consts, and exported
        # methods on EXPORTED receiver types (methods on unexported
        # types are not part of the package surface).
        /^(func|type|var|const) [A-Z]/ || /^func \([[:alnum:]_]+ \*?[A-Z][^)]*\) [A-Z]/ {
            if (prev !~ /^\/\//) {
                printf "doclint: %s:%d: exported symbol without doc comment: %s\n", file, NR, $0
                bad = 1
            }
        }
        { prev = $0 }
        END { exit bad }
    ' "$f" >&2 || fail=1
done

if [ "$fail" -ne 0 ]; then
    echo "doclint: findings above" >&2
    exit 1
fi
echo "doclint: clean"
