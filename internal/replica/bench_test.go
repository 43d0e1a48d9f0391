package replica_test

import (
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// BenchmarkServerPwriteReplicated is write4k's cluster call on one group: a
// 32-pwrite batch through a primary with one backup at quorum 1 — the
// client's Submit, the primary's execution, log shipping and quorum wait, and
// the backup's apply and ack. bench-smoke gates it at 0 allocs/op.
func BenchmarkServerPwriteReplicated(b *testing.B) {
	cfg := quietConfig()
	p := startPrimary(b, cfg)
	cfg.Restore = func(img []byte) (fsapi.FileSystem, error) {
		fs, err := mountImage(img)
		if err == nil {
			// The volume's one-in-32 deep sample allocates its window;
			// BenchmarkResolve* gates the volume.
			fs.Obs().SetSamplePeriod(1 << 30)
		}
		return fs, err
	}
	startBackup(b, cfg, p.addr)
	waitFor(b, "backup to join", func() bool { return p.n.Backups() == 1 })
	p.vol.Obs().SetSamplePeriod(1 << 30)
	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Detach()
	fd, err := c.Create("/w", 0o644)
	if err != nil {
		b.Fatal(err)
	}
	const block = 4096
	data := make([]byte, block)
	reqs := make([]wire.Request, 32)
	for i := range reqs {
		reqs[i] = wire.Request{Op: wire.OpPwrite, FD: fd, Off: uint64(i * block), Data: data}
	}
	s := c.(*client.Session)
	b.SetBytes(int64(len(reqs) * block))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resps, err := s.Submit(reqs)
		if err != nil {
			b.Fatal(err)
		}
		if r := &resps[len(reqs)-1]; r.Code != wire.CodeOK || r.N != block {
			b.Fatalf("pwrite: %d bytes, %v", r.N, r.Err())
		}
	}
}
