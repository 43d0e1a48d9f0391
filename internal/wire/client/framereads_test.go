package client_test

// A Submit's read responses are views of the reply frame they arrived in: the
// reader takes the frame out of the pool for good and the responses keep it
// alive. These tests hold that to its contract — responses stay the caller's
// whatever arrives next, a call that brought its own buffer is served as
// before, a replay after a transport loss lands the right bytes, and the
// count that switches the reader over returns to zero on every way out.

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// batchClient is what Session and RoutedSession have in common here.
type batchClient interface {
	fsapi.Client
	Submit([]wire.Request) ([]wire.Response, error)
	FrameReads() int
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

// readTargets are the two kinds of session, each with the files its batches
// read: one on a plain session, one per shard on a routed one, so that every
// routed batch splits.
func readTargets() map[string]func(t *testing.T) (batchClient, []fsapi.FD) {
	return map[string]func(t *testing.T) (batchClient, []fsapi.FD){
		"session": func(t *testing.T) (batchClient, []fsapi.FD) {
			c, err := serve(t).Attach(fsapi.Root)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Detach() })
			return c.(*client.Session), []fsapi.FD{writeReadFile(t, c, "/r0", 0)}
		},
		"routed": func(t *testing.T) (batchClient, []fsapi.FD) {
			rt, m := serveHashCluster(t, 2)
			c, err := rt.Attach(fsapi.Root)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Detach() })
			return c.(*client.RoutedSession), []fsapi.FD{
				writeReadFile(t, c, pathOnShard(t, m, "r", 0), 0),
				writeReadFile(t, c, pathOnShard(t, m, "r", 1), 1),
			}
		},
	}
}

// TestSubmitReadsOutliveLaterFrames keeps the responses of 64 consecutive
// read batches, lets a further thousand reply frames arrive on the same
// session, and only then looks at the kept bytes. A reply frame that backs
// responses belongs to them: were it ever pooled or reused, a later frame
// would land on top of data the caller still holds. (One later frame in
// eight is a full batch, the size of the kept ones; the rest carry two
// blocks, which keeps the test's garbage — every frame is — in the tens of
// megabytes.)
func TestSubmitReadsOutliveLaterFrames(t *testing.T) {
	for name, open := range readTargets() {
		t.Run(name, func(t *testing.T) {
			c, fds := open(t)
			const keep, later = 64, 1000
			kept := make([][]wire.Response, keep)
			full := make([]wire.Request, readBatch)
			for k := 0; k < keep+later; k++ {
				reqs := full
				if k >= keep && k%8 != 0 {
					reqs = full[:2]
				}
				readBatchAt(reqs, fds, k)
				resps, err := c.Submit(reqs)
				if err != nil {
					t.Fatal(err)
				}
				if k < keep {
					kept[k] = resps
				} else if err := checkReadBatch(resps, len(reqs), len(fds), k); err != nil {
					t.Fatal(err)
				}
			}
			for k, resps := range kept {
				if err := checkReadBatch(resps, readBatch, len(fds), k); err != nil {
					t.Fatalf("after %d later frames: %v", later, err)
				}
			}
			if n := c.FrameReads(); n != 0 {
				t.Errorf("%d frame reads counted with nothing in flight", n)
			}
		})
	}
}

// TestSubmitReadsBesidePreadDst runs read batches and Pread calls on one
// session at once. The reader switches to frames of its own while a batch is
// in flight, and a Pread's reply may arrive in one: its bytes must still be
// copied into the caller's buffer, which nothing may write to afterwards.
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
	if n := sess.FrameReads(); n != 0 {
		t.Errorf("%d frame reads counted with nothing in flight", n)
	}
}

// TestSubmitReadsReplayedAfterCut severs the transport under read batches
// until some have been replayed: a replayed batch is answered over the new
// transport, into the responses of the call that is still waiting, and its
// calls stay counted in between.
func TestSubmitReadsReplayedAfterCut(t *testing.T) {
	proxy := startChaosProxy(t, startReplicatedServer(t))
	remote, err := client.Dial(proxy.addr(), client.Options{FailoverTimeout: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.(*client.Session)
	fds := []fsapi.FD{writeReadFile(t, c, "/r0", 0)}

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
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reqs := make([]wire.Request, readBatch)
			for k := g; ; k += 2 {
				select {
				case <-stop:
					return
				default:
				}
				readBatchAt(reqs, fds, k)
				resps, err := sess.Submit(reqs)
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
	if n := sess.FrameReads(); n != 0 {
		t.Errorf("%d frame reads counted with nothing in flight", n)
	}
}

// TestFrameReadsCountReturnsToZero takes the two ways out of a submission
// that never see a reply: a start that fails after it has registered its
// calls (the encoded group is too large for a frame), and a wait cut short by
// the session's death, which withdraws them.
func TestFrameReadsCountReturnsToZero(t *testing.T) {
	hole := startBlackhole(t, startReplicatedServer(t))
	remote, err := client.Dial(hole.addr(), client.Options{FailoverTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	sess := c.(*client.Session)
	fds := []fsapi.FD{writeReadFile(t, c, "/r0", 0)}

	reqs := make([]wire.Request, readBatch)
	readBatchAt(reqs, fds, 0)
	big := make([]byte, wire.MaxIO)
	for i := 0; i < 4; i++ {
		reqs[i] = wire.Request{Op: wire.OpPwrite, FD: fds[0], Data: big}
	}
	if _, err := sess.Submit(reqs); !errors.Is(err, wire.ErrFrameTooLarge) {
		t.Fatalf("Submit of a 4 MiB group = %v, want ErrFrameTooLarge", err)
	}
	if n := sess.FrameReads(); n != 0 {
		t.Errorf("%d frame reads counted after a start that failed", n)
	}

	readBatchAt(reqs, fds, 1)
	if resps, err := sess.Submit(reqs); err != nil {
		t.Fatal(err)
	} else if err := checkReadBatch(resps, readBatch, 1, 1); err != nil {
		t.Fatal(err)
	}
	hole.swallow.Store(true)
	done := make(chan error, 1)
	go func() {
		_, err := sess.Submit(reqs)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); sess.FrameReads() != readBatch; {
		if time.Now().After(deadline) {
			t.Fatalf("%d frame reads counted with a batch of %d in flight", sess.FrameReads(), readBatch)
		}
		time.Sleep(time.Millisecond)
	}
	hole.close() // the transport dies and no redial can succeed
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Submit succeeded with its replies swallowed")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Submit never returned after the session died")
	}
	if n := sess.FrameReads(); n != 0 {
		t.Errorf("%d frame reads counted after the batch was withdrawn", n)
	}
}
