package client_test

import (
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// benchReadTargets attaches a plain session to a one-node cluster and a
// routed session to a two-shard one, each with one patterned file open — a
// descriptor pins its calls to one shard, so both see one reply frame a call.
func benchReadTargets(b *testing.B, run func(b *testing.B, c batchClient, fd fsapi.FD)) {
	for _, tc := range []struct {
		name   string
		shards int
	}{{"session", 1}, {"routed", 2}} {
		b.Run(tc.name, func(b *testing.B) {
			rt, m, vols, _ := serveClusterVols(b, make([]string, tc.shards))
			for _, vol := range vols {
				// The volume's one-in-32 deep sample allocates its window;
				// BenchmarkResolve* gates the volume (see BenchmarkRoutedSubmitStat).
				vol.Obs().SetSamplePeriod(1 << 30)
			}
			var c fsapi.Client
			var err error
			if tc.shards == 1 {
				var remote *client.Remote
				if remote, err = client.Dial(m.Shards[0].Addrs[0], client.Options{}); err != nil {
					b.Fatal(err)
				}
				defer remote.Close()
				c, err = remote.Attach(fsapi.Root)
			} else {
				c, err = rt.Attach(fsapi.Root)
			}
			if err != nil {
				b.Fatal(err)
			}
			defer c.Detach()
			run(b, c.(batchClient), writeReadFile(b, c, "/r0", 0))
		})
	}
}

// BenchmarkSubmitRead4K is the ladder's read4k call: 32 block preads per
// Submit against an in-process server over loopback. bench-smoke gates it at
// the two allocations a call cannot avoid — the []wire.Response it returns
// and the reply frame the responses' Data points into.
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
