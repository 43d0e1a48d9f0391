package client_test

// A Submit's responses and the data of its preads live in the session's
// working set until the session's next Submit: the reader copies each block
// out of its pooled reply frame into the pread's landing slot. These tests
// hold that to its contract — each call's results hold its own bytes and
// cost no allocation, a Pread that brought its own buffer is served beside
// a batch as before, and a replay after a transport loss lands the right
// bytes.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// batchClient is what the tests use of a session beyond fsapi.Client.
type batchClient interface {
	fsapi.Client
	Submit([]wire.Request) ([]wire.Response, error)
	LandingSpace() int
	OpenFiles() int
}

const (
	readFileSize = 1 << 20
	readBlock    = 4096
	readBatch    = 32
)

// readPat is the expected byte at offset off of the file tagged tag.
func readPat(tag, off int) byte { return byte(off*131 ^ off>>11 ^ tag*89) }

// writeReadFile creates path holding readPat(tag, ·) and opens it read-only.
func writeReadFile(t testing.TB, c fsapi.Client, path string, tag int) fsapi.FD {
	t.Helper()
	data := make([]byte, readFileSize)
	for i := range data {
		data[i] = readPat(tag, i)
	}
	fd, err := c.Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Pwrite(fd, data, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	if fd, err = c.Open(path, fsapi.ORdonly, 0); err != nil {
		t.Fatal(err)
	}
	return fd
}

// readBatchAt fills reqs with block preads spread over fds; call k of a
// sequence reads different blocks from call k+1.
func readBatchAt(reqs []wire.Request, fds []fsapi.FD, k int) {
	for j := range reqs {
		off := ((k*len(reqs) + j) * 7 * readBlock) % (readFileSize - readBlock)
		reqs[j] = wire.Request{Op: wire.OpPread, FD: fds[j%len(fds)], Size: readBlock, Off: uint64(off)}
	}
}

// checkReadBatch verifies every byte of the responses to a batch of n that
// readBatchAt(·, fds, k) filled.
func checkReadBatch(resps []wire.Response, n, nfds, k int) error {
	if len(resps) != n {
		return fmt.Errorf("call %d: %d responses, want %d", k, len(resps), n)
	}
	for j := range resps {
		off := ((k*len(resps) + j) * 7 * readBlock) % (readFileSize - readBlock)
		r := &resps[j]
		if r.Code != wire.CodeOK || len(r.Data) != readBlock {
			return fmt.Errorf("call %d read %d: %d bytes, %v", k, j, len(r.Data), r.Err())
		}
		for i, b := range r.Data {
			if want := readPat(j%nfds, off+i); b != want {
				return fmt.Errorf("call %d read %d at %d: byte %d = %#x, want %#x", k, j, off, i, b, want)
			}
		}
	}
	return nil
}

// readTarget is a session with patterned files open for its batches to read.
type readTarget struct {
	c     batchClient
	fds   []fsapi.FD
	paths []string
}

// openReadTarget attaches a plain session to a one-node cluster (shards 1)
// or a routed session to a two-shard one, with one file per shard, so that
// every routed batch over all of them splits. A volume deep-samples one
// operation in 32 and allocates that sample's window; BenchmarkResolve*
// gates the volume, so the sampling is turned off here.
func openReadTarget(t testing.TB, shards int) readTarget {
	t.Helper()
	rt, m, vols, _ := serveClusterVols(t, make([]string, shards))
	for _, vol := range vols {
		vol.Obs().SetSamplePeriod(1 << 30)
	}
	var c fsapi.Client
	var err error
	if shards == 1 {
		var remote *client.Remote
		if remote, err = client.Dial(m.Shards[0].Addrs[0], client.Options{}); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { remote.Close() })
		c, err = remote.Attach(fsapi.Root)
	} else {
		c, err = rt.Attach(fsapi.Root)
	}
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Detach() })
	tg := readTarget{c: c.(batchClient)}
	for i := 0; i < shards; i++ {
		p := "/r0"
		if shards > 1 {
			p = pathOnShard(t, m, "r", uint32(i))
		}
		tg.paths = append(tg.paths, p)
		tg.fds = append(tg.fds, writeReadFile(t, c, p, i))
	}
	return tg
}

// readTargets are the two kinds of session, by name, with their shard count.
var readTargets = []struct {
	name   string
	shards int
}{{"session", 1}, {"routed", 2}}

// fewestAllocs is the least of three testing.AllocsPerRun measures of f.
// AllocsPerRun counts the whole process's allocations, including any that
// an earlier test's goroutines make while they wind down; an allocation f
// makes on every call shows in all three.
func fewestAllocs(f func()) float64 {
	least := testing.AllocsPerRun(100, f)
	for i := 0; i < 2 && least > 0; i++ {
		least = min(least, testing.AllocsPerRun(100, f))
	}
	return least
}

// TestSubmitResultsLiveUntilNextSubmit holds Submit to its contract on both
// kinds of session: a call's responses and read data live in the session's
// working set until its next Submit. Each call's responses hold that call's
// bytes; once the working set has grown, a 32-pread and a 32-stat Submit
// allocate nothing; and a batch that needed more landing space than a
// working set keeps between calls gives the excess back, while the next
// batch still reads right.
func TestSubmitResultsLiveUntilNextSubmit(t *testing.T) {
	for _, tc := range readTargets {
		t.Run(tc.name, func(t *testing.T) {
			tg := openReadTarget(t, tc.shards)
			c, fds := tg.c, tg.fds
			reqs := make([]wire.Request, readBatch)
			for k := 0; k < 64; k++ {
				readBatchAt(reqs, fds, k)
				resps, err := c.Submit(reqs)
				if err != nil {
					t.Fatal(err)
				}
				if err := checkReadBatch(resps, readBatch, len(fds), k); err != nil {
					t.Fatal(err)
				}
			}

			stats := make([]wire.Request, readBatch)
			for j := range stats {
				stats[j] = wire.Request{Op: wire.OpStat, Path: tg.paths[j%len(tg.paths)]}
			}
			if !raceEnabled {
				k := 0
				reads := fewestAllocs(func() {
					k++
					readBatchAt(reqs, fds, k)
					if _, err := c.Submit(reqs); err != nil {
						t.Fatal(err)
					}
				})
				statAllocs := fewestAllocs(func() {
					if _, err := c.Submit(stats); err != nil {
						t.Fatal(err)
					}
				})
				if reads != 0 || statAllocs != 0 {
					t.Errorf("a %d-pread Submit makes %v allocations, a %d-stat Submit %v; want 0",
						readBatch, reads, readBatch, statAllocs)
				}
			}
			resps, err := c.Submit(stats)
			if err != nil {
				t.Fatal(err)
			}
			for j := range resps {
				if r := &resps[j]; r.Code != wire.CodeOK || r.Stat.Size != readFileSize {
					t.Fatalf("stat %s: size %d, %v", stats[j].Path, r.Stat.Size, r.Err())
				}
			}

			// Two whole-file reads: 2 × MaxIO of landing space for one call.
			big := []wire.Request{
				{Op: wire.OpPread, FD: fds[0], Size: wire.MaxIO},
				{Op: wire.OpPread, FD: fds[len(fds)-1], Size: wire.MaxIO},
			}
			if resps, err = c.Submit(big); err != nil {
				t.Fatal(err)
			}
			for j := range resps {
				tag := j * (len(fds) - 1)
				if len(resps[j].Data) != readFileSize {
					t.Fatalf("whole-file read %d: %d bytes, %v", j, len(resps[j].Data), resps[j].Err())
				}
				for i, b := range resps[j].Data {
					if want := readPat(tag, i); b != want {
						t.Fatalf("whole-file read %d: byte %d = %#x, want %#x", j, i, b, want)
					}
				}
			}
			if n := c.LandingSpace(); n > 1<<20 {
				t.Errorf("the working set keeps %d bytes of landing space after a %d-byte batch, want at most 1 MiB",
					n, 2*wire.MaxIO)
			}
			readBatchAt(reqs, fds, 1)
			if resps, err = c.Submit(reqs); err != nil {
				t.Fatal(err)
			}
			if err := checkReadBatch(resps, readBatch, len(fds), 1); err != nil {
				t.Fatalf("after a large batch: %v", err)
			}
		})
	}
}

// TestSubmitReadsBesidePreadDst runs read batches and Pread calls on one
// session at once, so that one reply frame may answer both: the batch's
// blocks must land in the working set's slots and a Pread's in the caller's
// buffer, which nothing may write to afterwards.
func TestSubmitReadsBesidePreadDst(t *testing.T) {
	c, err := serve(t).Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Detach()
	sess := c.(*client.Session)
	fds := []fsapi.FD{writeReadFile(t, c, "/r0", 0)}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bufs := [2][]byte{make([]byte, 3*readBlock), make([]byte, 3*readBlock)}
			offs := [2]int{-1, -1}
			check := func(i int) {
				for k, b := range bufs[i] {
					if want := readPat(0, offs[i]+k); b != want {
						t.Errorf("Pread buffer at %d: byte %d = %#x, want %#x", offs[i], k, b, want)
						return
					}
				}
			}
			for it := 0; ; it++ {
				select {
				case <-stop:
					return
				default:
				}
				i := it % 2
				offs[i] = ((g*131 + it) * 5 * readBlock) % (readFileSize - len(bufs[i]))
				n, err := sess.Pread(fds[0], bufs[i], uint64(offs[i]))
				if err != nil || n != len(bufs[i]) {
					t.Errorf("Pread = %d, %v", n, err)
					return
				}
				check(i)
				if offs[1-i] >= 0 {
					check(1 - i) // the previous call's buffer, a round trip later
				}
			}
		}(g)
	}
	reqs := make([]wire.Request, readBatch)
	for k := 0; k < 300 && !t.Failed(); k++ {
		readBatchAt(reqs, fds, k)
		resps, err := sess.Submit(reqs)
		if err != nil {
			t.Error(err)
			break
		}
		if err := checkReadBatch(resps, readBatch, 1, k); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestSubmitReadsReplayedAfterCut severs the transport under read batches
// until some have been replayed: a replayed batch is answered over the new
// transport, into the working set of the call that is still waiting. Each
// submitter has a session of its own, because a call's results live only
// until its session's next Submit.
func TestSubmitReadsReplayedAfterCut(t *testing.T) {
	proxy := startChaosProxy(t, startReplicatedServer(t))
	remote, err := client.Dial(proxy.addr(), client.Options{FailoverTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	var sessions [2]*client.Session
	var fds [2]fsapi.FD
	for g := range sessions {
		c, err := remote.Attach(fsapi.Root)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Detach()
		sessions[g] = c.(*client.Session)
		fds[g] = writeReadFile(t, c, fmt.Sprintf("/r%d", g), 0)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(40 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				proxy.killAll()
			}
		}
	}()
	for g := range sessions {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]wire.Request, readBatch)
			fds := fds[g : g+1]
			for k := g; ; k += 2 {
				select {
				case <-stop:
					return
				default:
				}
				readBatchAt(reqs, fds, k)
				resps, err := sessions[g].Submit(reqs)
				if err == nil {
					err = checkReadBatch(resps, readBatch, 1, k)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !t.Failed(); {
		if st := remote.Stats(); st.Failovers > 0 && st.Replays > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if st := remote.Stats(); st.Replays == 0 {
		t.Fatal("no read batch was in flight when the transport was cut")
	}
}
