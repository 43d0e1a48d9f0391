package replica_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/shard"
	"simurgh/internal/wire/client"
)

// TestJoinShipsWrittenPagesOnly joins a backup to a 64 MiB primary holding
// a small known tree and counts what the join shipped: the written pages
// and their run headers, not the arena. The bound is a count, independent
// of the host. The promoted backup must serve the same tree byte for byte.
func TestJoinShipsWrittenPagesOnly(t *testing.T) {
	const arena = 64 << 20
	p := startPrimarySized(t, repConfig(), arena)

	remote, err := client.Dial(p.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{"/", "/a", "/b", "/a/c"}
	for _, d := range dirs[1:] {
		if err := c.Mkdir(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		path := fmt.Sprintf("%s/f%02d", dirs[1+i%3], i)
		body := bytes.Repeat([]byte(fmt.Sprintf("file %02d ", i)), 16<<10/8)
		writeFile(t, c, path, string(body))
		want[path] = string(body)
	}
	listing := func(c fsapi.Client) map[string][]fsapi.DirEntry {
		t.Helper()
		ls := map[string][]fsapi.DirEntry{}
		for _, d := range dirs {
			ents, err := c.ReadDir(d)
			if err != nil {
				t.Fatalf("readdir %s: %v", d, err)
			}
			ls[d] = ents
		}
		return ls
	}
	wantLs := listing(c)
	c.Detach()

	b := startBackup(t, repConfig(), p.addr)
	waitFor(t, "backup to join", func() bool { return p.n.Backups() == 1 })
	waitFor(t, "backup to catch up", func() bool { return b.n.Seq() == p.n.Seq() })

	// Every non-zero page is the superblock (block 0, outside the
	// allocator) or a block the allocator handed out. Each is shipped at
	// most once, with at most one 16-byte run header; the image adds a
	// 16-byte header and a 16-byte end-of-runs marker.
	const runOverhead, imageOverhead = 16, 32
	pages := (arena/core.BlockSize - 1) - p.vol.FreeBlocks() + 1
	bound := pages*(core.BlockSize+runOverhead) + imageOverhead
	shipped := metricValue(t, p.n, "simurgh_replica_snapshot_bytes_total")
	joins := metricValue(t, p.n, "simurgh_replica_joins_total")
	if joins == 0 {
		t.Fatal("no join counted")
	}
	perJoin := shipped / joins
	t.Logf("%d B per join for %d used pages of a %d MiB arena", perJoin, pages, arena>>20)
	if perJoin > bound {
		t.Fatalf("join shipped %d B, more than %d used pages allow (%d B)", perJoin, pages, bound)
	}
	if perJoin >= arena/8 {
		t.Fatalf("join shipped %d B, not under 1/8 of the %d B arena", perJoin, uint64(arena))
	}

	if _, err := shard.PromoteNode(b.addr, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	remote2, err := client.Dial(b.addr, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer remote2.Close()
	c2, err := remote2.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Detach()
	if got := listing(c2); !reflect.DeepEqual(got, wantLs) {
		t.Fatalf("promoted backup lists\n%v\nwant\n%v", got, wantLs)
	}
	for path, body := range want {
		if got := readFile(t, c2, path); got != body {
			t.Fatalf("%s: %d bytes differ from the %d written", path, len(got), len(body))
		}
	}
}
