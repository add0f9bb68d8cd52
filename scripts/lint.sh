#!/usr/bin/env bash
# Run the domain static-analysis suite (cmd/arpanetlint) over the whole
# repository: determinism (interprocedural), pool-safety, sim.Handle
# discipline, float comparison hygiene, domain error checking, hot-path
# allocation freedom and shard-barrier invariants. Every run computes the
# interprocedural effect summaries from scratch and writes nothing to the
# tree.
#
# Usage:
#   scripts/lint.sh               # whole repo, human-readable
#   scripts/lint.sh -json         # machine-readable result schema
#   scripts/lint.sh -rules detdrift,allocfree
#   scripts/lint.sh -diff         # dry-run the auto-fixes as a diff
#
# Exit status distinguishes outcomes so CI can route them:
#   0  clean tree
#   1  findings (or package load errors) — the tree needs work
#   2  driver error (bad flag, unknown rule, broken module) — the lint
#      run itself is unusable; do not treat it as "findings"
#
# Suppress an intentional site with "// lint:ignore <rule> <reason>" on
# the flagged line or the line above; a deliberate hot-path allocation
# takes "// lint:alloc <reason>". The reason is mandatory, and stale
# suppressions are themselves findings.
set -uo pipefail
cd "$(dirname "$0")/.."

# Build a real binary instead of `go run`: go run collapses any nonzero
# child exit into its own exit 1, which would erase the findings(1) vs
# driver-error(2) distinction below.
BINDIR="$(mktemp -d)"
trap 'rm -rf "$BINDIR"' EXIT
go build -o "$BINDIR/arpanetlint" ./cmd/arpanetlint || exit 2

echo "arpanetlint: json schema version $("$BINDIR/arpanetlint" -schema)"
"$BINDIR/arpanetlint" "$@" ./...
status=$?
case "$status" in
  0) echo "lint: clean" ;;
  1) echo "lint: findings reported (exit 1)" >&2 ;;
  *) echo "lint: driver error (exit $status)" >&2 ;;
esac
exit "$status"
