#!/usr/bin/env bash
# Bench-smoke gate: run the path-resolution, wire codec and server
# steady-state benchmarks with -benchmem and fail if any benchmark reports
# nonzero allocs/op, unless it is listed in scripts/alloc_allowlist.txt. This
# pins the zero-allocation hot-path guarantees in CI.
#
# BenchmarkResolve{Shared,Private} are depth-3 Stat calls from parallel
# goroutines: core walks a plain path in place and must not allocate on a hit.
#
# The BenchmarkServer* pattern also covers the traced-but-unsampled path
# (BenchmarkServerPwriteTracedUnsampled): a node running with -trace must
# stay at 0 allocs/op for the ~1023/1024 of requests that carry no trace
# context.
set -euo pipefail
cd "$(dirname "$0")/.."

allow="scripts/alloc_allowlist.txt"

out=$(go test -run '^$' \
	-bench 'BenchmarkResolve|BenchmarkBatchCodec|BenchmarkResponseCodec|BenchmarkEntryCodec|BenchmarkServer|BenchmarkShip' \
	-benchmem -benchtime 2000x -count=1 \
	./internal/core/ ./internal/wire/ ./internal/server/ ./internal/replica/)
echo "$out"
echo

bad=0
while read -r name allocs; do
	if grep -vE '^#|^$' "$allow" | grep -qxF "$name"; then
		echo "allowlisted: $name ($allocs allocs/op)"
		continue
	fi
	echo "FAIL: $name allocates on the steady-state path ($allocs allocs/op)" >&2
	bad=1
done < <(echo "$out" | awk '/allocs\/op/ {
	n = $1; sub(/-[0-9]+$/, "", n)
	a = $(NF-1)
	if (a + 0 > 0) print n, a
}')

if [ "$bad" -eq 0 ]; then
	echo "bench-smoke: all steady-state benchmarks at 0 allocs/op"
fi
exit $bad
