package server_test

import (
	"sync"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// patternAt is the expected byte at file offset off — position-dependent so
// a reply whose bytes came from a recycled buffer at the wrong offset (a
// pool-lifetime bug) cannot verify.
func patternAt(off int) byte { return byte(off*131 ^ off>>11) }

// TestPoolLifetimeSplitReplies hammers the pooled-buffer ownership contract
// end to end: concurrent sessions interleave large-pread batches — whose
// replies split across several frames and force mid-batch vectored flushes
// — with read-only stat batches, and every returned byte is verified against
// the file's position-dependent pattern. Its real teeth come from
// `go test -race`: a frame buffer released while still referenced, a reply
// staged from a recycled payload, or a scratch buffer shared across
// connections shows up as a data race or a corrupt read.
func TestPoolLifetimeSplitReplies(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	remote, err := client.Dial(addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	const fileSize = 4 << 20
	root, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer root.Detach()
	fd, err := root.Create("/big", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	chunk := make([]byte, 1<<20)
	for off := 0; off < fileSize; off += len(chunk) {
		for i := range chunk {
			chunk[i] = patternAt(off + i)
		}
		if _, err := root.Pwrite(fd, chunk, uint64(off)); err != nil {
			t.Fatal(err)
		}
	}
	if err := root.Close(fd); err != nil {
		t.Fatal(err)
	}

	const (
		workers = 4
		iters   = 12
		preads  = 10 // 10 MaxIO responses split across 3+ reply frames
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := remote.Attach(fsapi.Root)
			if err != nil {
				errs <- err
				return
			}
			defer c.Detach()
			sess := c.(*client.Session)
			fd, err := c.Open("/big", fsapi.ORdonly, 0)
			if err != nil {
				errs <- err
				return
			}
			reqs := make([]wire.Request, preads)
			stats := make([]wire.Request, 8)
			dst := make([]byte, 256<<10)
			for it := 0; it < iters; it++ {
				// MaxIO preads with split multi-frame replies.
				for j := range reqs {
					off := ((g*31 + it*17 + j*13) * 4096) % (fileSize - wire.MaxIO + 1)
					reqs[j] = wire.Request{Op: wire.OpPread, FD: fd,
						Size: wire.MaxIO, Off: uint64(off)}
				}
				resps, err := sess.Submit(reqs)
				if err != nil {
					errs <- err
					return
				}
				for j, resp := range resps {
					if err := resp.Err(); err != nil {
						errs <- err
						return
					}
					if len(resp.Data) != wire.MaxIO {
						t.Errorf("pread %d returned %d bytes", j, len(resp.Data))
						return
					}
					off := int(reqs[j].Off)
					for k := 0; k < len(resp.Data); k += 4093 {
						if resp.Data[k] != patternAt(off+k) {
							t.Errorf("pread at %d: byte %d = %#x, want %#x",
								off, k, resp.Data[k], patternAt(off+k))
							return
						}
					}
				}
				// A batch of read-only stats.
				for j := range stats {
					stats[j] = wire.Request{Op: wire.OpStat, Path: "/big"}
				}
				sresps, err := sess.Submit(stats)
				if err != nil {
					errs <- err
					return
				}
				for _, resp := range sresps {
					if err := resp.Err(); err != nil {
						errs <- err
						return
					}
					if resp.Stat.Size != fileSize {
						t.Errorf("stat size = %d, want %d", resp.Stat.Size, fileSize)
						return
					}
				}
				// The fsapi read path: data decodes straight into dst.
				off := ((g*7 + it*29) * 8192) % (fileSize - len(dst))
				n, err := c.Pread(fd, dst, uint64(off))
				if err != nil {
					errs <- err
					return
				}
				if n != len(dst) {
					t.Errorf("Pread = %d bytes, want %d", n, len(dst))
					return
				}
				for k := 0; k < n; k += 1021 {
					if dst[k] != patternAt(off+k) {
						t.Errorf("Pread at %d: byte %d = %#x, want %#x",
							off, k, dst[k], patternAt(off+k))
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
