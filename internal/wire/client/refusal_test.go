package client_test

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"simurgh/internal/core"
	"simurgh/internal/fsapi"
	"simurgh/internal/pmem"
	"simurgh/internal/server"
	"simurgh/internal/wire"
	"simurgh/internal/wire/client"
)

// standby is a one-node replica group member that refuses its first
// refuse attaches as a backup naming primary (refuse < 0: every attach),
// then serves them: a backup that is promoted after that many refusals.
type standby struct {
	fs      fsapi.FileSystem
	primary string
	refuse  int64
	refused atomic.Int64
}

func (n *standby) AttachClient(cred fsapi.Cred, _ uint64) (fsapi.Client, uint64, string, error) {
	if n.refuse < 0 || n.refused.Load() < n.refuse {
		n.refused.Add(1)
		return nil, 0, n.primary, wire.ErrNotPrimary
	}
	c, err := n.fs.Attach(cred)
	return c, 1, "", err
}

func (n *standby) Apply(_ uint64, _ *wire.Request, _ uint64, exec func() wire.Response) (wire.Response, uint64) {
	return exec(), 0
}
func (n *standby) WaitQuorum(uint64)                                    {}
func (n *standby) ReleaseSession(uint64)                                {}
func (n *standby) HandleJoin(net.Conn, *wire.FrameReader, []byte) error { return wire.ErrNotPrimary }
func (n *standby) Promote() (uint64, error)                             { return 0, wire.ErrNotPrimary }

// standbys makes count standby nodes, each over its own volume and
// listening on its own port, and returns them with their addresses. The
// nodes serve once the caller has set their fields and called start.
func standbys(t *testing.T, count int) (nodes []*standby, addrs []string, start func()) {
	t.Helper()
	var lns []net.Listener
	for range count {
		fs, err := core.Format(pmem.New(16<<20), fsapi.Root, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, &standby{fs: fs})
		addrs = append(addrs, ln.Addr().String())
		lns = append(lns, ln)
	}
	start = func() {
		for i, n := range nodes {
			srv, err := server.New(server.Config{FS: n.fs, Replica: n})
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(lns[i])
			t.Cleanup(srv.Shutdown)
		}
	}
	return nodes, addrs, start
}

// TestBackupRefusalOutcomes covers the three outcomes of a backup's
// attach refusal, a Moved at epoch 0: the client follows it to the primary
// it names; an empty name moves on to the next address of the dial list,
// and the attach succeeds once a node is promoted within the failover
// budget; a chain of refusals that runs out leaves the pass retryable. A
// client that took an epoch-0 Moved for a map refusal would fail the first
// attach at once, with wire.ErrMoved, in every case.
func TestBackupRefusalOutcomes(t *testing.T) {
	cases := []struct {
		name string
		// set configures the nodes and returns the dial list and budget.
		set   func(nodes []*standby, addrs []string) (string, time.Duration)
		check func(t *testing.T, nodes []*standby, st client.Stats, err error)
	}{
		{
			name: "followed to the named primary",
			set: func(nodes []*standby, addrs []string) (string, time.Duration) {
				nodes[0].refuse, nodes[0].primary = -1, addrs[1]
				return addrs[0], 0
			},
			check: func(t *testing.T, nodes []*standby, st client.Stats, err error) {
				if err != nil {
					t.Fatalf("attach through the backup: %v", err)
				}
				if st.Redirects != 1 || nodes[0].refused.Load() != 1 {
					t.Fatalf("redirects %d, backup refusals %d; want 1 and 1", st.Redirects, nodes[0].refused.Load())
				}
			},
		},
		{
			name: "no primary known, next candidate promoted within the budget",
			set: func(nodes []*standby, addrs []string) (string, time.Duration) {
				nodes[0].refuse = -1
				nodes[1].refuse = 2
				return addrs[0] + "," + addrs[1], 10 * time.Second
			},
			check: func(t *testing.T, nodes []*standby, st client.Stats, err error) {
				if err != nil {
					t.Fatalf("attach after the promotion: %v", err)
				}
				if nodes[0].refused.Load() == 0 || nodes[1].refused.Load() != 2 {
					t.Fatalf("refusals %d and %d; want the first node passed over and the second node's 2",
						nodes[0].refused.Load(), nodes[1].refused.Load())
				}
			},
		},
		{
			name: "exhausted chain stays retryable",
			set: func(nodes []*standby, addrs []string) (string, time.Duration) {
				nodes[0].refuse, nodes[0].primary = -1, addrs[1]
				nodes[1].refuse, nodes[1].primary = -1, addrs[0]
				return addrs[0], 0
			},
			check: func(t *testing.T, nodes []*standby, st client.Stats, err error) {
				if !errors.Is(err, wire.ErrNotPrimary) || errors.Is(err, wire.ErrMoved) {
					t.Fatalf("attach between two backups naming each other: %v; want ErrNotPrimary", err)
				}
				if hops := nodes[0].refused.Load() + nodes[1].refused.Load(); hops != client.MaxMovedHops {
					t.Fatalf("%d refusals followed, want the bound %d", hops, client.MaxMovedHops)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nodes, addrs, start := standbys(t, 2)
			dial, budget := tc.set(nodes, addrs)
			start()
			remote, err := client.Dial(dial, client.Options{FailoverTimeout: budget})
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			c, err := remote.Attach(fsapi.Root)
			if err == nil {
				defer c.Detach()
				if _, err := c.Stat("/"); err != nil {
					t.Fatalf("stat over the attached session: %v", err)
				}
			}
			tc.check(t, nodes, remote.Stats(), err)
		})
	}
}
