package client_test

import (
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
)

// benchReadTargets runs a read benchmark on a plain session over a one-node
// cluster and on a routed session over a two-shard one, each reading one
// patterned file — a descriptor pins its calls to one shard, so both see one
// reply frame a call.
func benchReadTargets(b *testing.B, run func(b *testing.B, c batchClient, fd fsapi.FD)) {
	for _, tc := range readTargets {
		b.Run(tc.name, func(b *testing.B) {
			tg := openReadTarget(b, tc.shards)
			run(b, tg.c, tg.fds[0])
		})
	}
}

// BenchmarkSubmitRead4K is the ladder's read4k call: 32 block preads per
// Submit against an in-process server over loopback. bench-smoke gates it at
// 0 allocs/op: the responses and the blocks land in the session's working
// set, reused by every call, and each block is copied once, out of the
// pooled reply frame into its landing slot.
func BenchmarkSubmitRead4K(b *testing.B) {
	benchReadTargets(b, func(b *testing.B, c batchClient, fd fsapi.FD) {
		reqs := make([]wire.Request, readBatch)
		fds := []fsapi.FD{fd}
		b.SetBytes(readBatch * readBlock)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			readBatchAt(reqs, fds, i)
			resps, err := c.Submit(reqs)
			if err != nil {
				b.Fatal(err)
			}
			if r := &resps[readBatch-1]; len(r.Data) != readBlock {
				b.Fatalf("pread: %d bytes, %v", len(r.Data), r.Err())
			}
		}
	})
}

// BenchmarkSessionPread4K is one fsapi Pread into the caller's buffer: the
// read path that brings its destination and must keep landing in it from a
// pooled frame, with no allocation of its own.
func BenchmarkSessionPread4K(b *testing.B) {
	benchReadTargets(b, func(b *testing.B, c batchClient, fd fsapi.FD) {
		buf := make([]byte, readBlock)
		b.SetBytes(readBlock)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := (i * 7 * readBlock) % (readFileSize - readBlock)
			if n, err := c.Pread(fd, buf, uint64(off)); n != readBlock || err != nil {
				b.Fatalf("Pread = %d, %v", n, err)
			}
		}
	})
}
