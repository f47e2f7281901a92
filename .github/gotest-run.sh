#!/usr/bin/env bash
# gotest-run.sh FILTER [go test flags] PACKAGES...
#
# `go test -run FILTER` exits 0 when FILTER matches nothing ("no tests to
# run"), so renaming a test silently empties every CI gate that names it.
# This wrapper is how ci.yml runs a -run-filtered step: it fails when any
# |-separated alternative of FILTER matches no test in PACKAGES, and when
# any package reports "no tests to run". FILTER must be a plain
# alternation of name prefixes (no groups); packages are the arguments
# that start with "./".
set -euo pipefail

filter=$1; shift
pkgs=() flags=()
for a in "$@"; do
  case $a in ./*) pkgs+=("$a") ;; *) flags+=("$a") ;; esac
done
listed=$(go test -list "$filter" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
IFS='|' read -ra alts <<<"$filter"
for alt in "${alts[@]}"; do
  if ! grep -Eq -- "$alt" <<<"$listed"; then
    echo "::error::-run alternative '$alt' matches no test in ${pkgs[*]} (renamed?)"
    exit 1
  fi
done
out=$(mktemp)
status=0
go test -run "$filter" "${flags[@]}" "${pkgs[@]}" 2>&1 | tee "$out" || status=$?
if grep -q 'no tests to run' "$out"; then
  echo "::error::a package matched by -run '$filter' ran no tests"
  status=1
fi
rm -f "$out"
exit "$status"
