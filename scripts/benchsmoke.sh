#!/usr/bin/env bash
# Bench-smoke gate: run the path-resolution, shard-routing, wire codec, server
# and routed-client steady-state benchmarks with -benchmem and fail if any
# benchmark reports nonzero allocs/op, unless scripts/alloc_allowlist.txt
# lists it — and then only up to the count listed beside it, if one is. This
# pins the zero-allocation hot-path guarantees in CI.
#
# BenchmarkResolve{Shared,Private} are depth-3 Stat calls from parallel
# goroutines: core walks a plain path in place and must not allocate on a hit.
#
# BenchmarkRoute and BenchmarkMovedPath are the two ends of shard routing (the
# client's route, the server's fence) over maps with 2 and 16 hash shards,
# with and without prefix shards: both must stay at 0. BenchmarkRoutedSubmitStat
# is a 32-stat batch fanned out over two in-process groups, end to end.
#
# BenchmarkSubmitRead4K is the read path end to end — 32 block preads per
# Submit, on a plain session and through the router — held to the returned
# slice and the one reply frame the responses keep; BenchmarkSessionPread4K is
# a single Pread into the caller's buffer, which must stay at 0.
#
# BenchmarkShipEntry and BenchmarkReplayCache are the replication layer's
# per-operation bookkeeping on the primary — encoding an entry into a link's
# buffer; a replay-cache lookup that misses, then the insert — and must stay
# at 0.
#
# The BenchmarkServer* pattern also covers the traced-but-unsampled path
# (BenchmarkServerPwriteTracedUnsampled): a node running with -trace must
# stay at 0 allocs/op for the ~1023/1024 of requests that carry no trace
# context.
set -euo pipefail
cd "$(dirname "$0")/.."

allow="scripts/alloc_allowlist.txt"

out=$(go test -run '^$' \
	-bench 'BenchmarkResolve|BenchmarkRoute|BenchmarkMovedPath|BenchmarkBatchCodec|BenchmarkResponseCodec|BenchmarkEntryCodec|BenchmarkServer|BenchmarkShip|BenchmarkReplayCache|BenchmarkSubmitRead4K|BenchmarkSessionPread4K' \
	-benchmem -benchtime 2000x -count=1 \
	./internal/core/ ./internal/shard/ ./internal/wire/ ./internal/wire/client/ ./internal/server/ ./internal/replica/)
echo "$out"
echo

bad=0
while read -r name allocs; do
	# An allowlist line is a benchmark name and, optionally, the most
	# allocs/op it may report.
	limit=$(awk -v n="$name" '!/^#/ && $1 == n { print ($2 == "" ? "any" : $2); exit }' "$allow")
	if [ "$limit" = any ] || { [ -n "$limit" ] && [ "$allocs" -le "$limit" ]; }; then
		echo "allowlisted: $name ($allocs allocs/op, limit $limit)"
		continue
	fi
	echo "FAIL: $name allocates on the steady-state path ($allocs allocs/op${limit:+, limit $limit})" >&2
	bad=1
done < <(echo "$out" | awk '/allocs\/op/ {
	n = $1; sub(/-[0-9]+$/, "", n)
	a = $(NF-1)
	if (a + 0 > 0) print n, a
}')

if [ "$bad" -eq 0 ]; then
	echo "bench-smoke: all steady-state benchmarks at 0 allocs/op or within their allowance"
fi
exit $bad
