package client_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/wire/client"
)

// connectLoops counts the goroutines inside a link's connect loop.
func connectLoops() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "client.(*link).connect(")
}

// waitNoConnectLoop waits out one backoff (the loop's longest is 250 ms)
// for every connect loop to have given up.
func waitNoConnectLoop(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for connectLoops() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d link.connect goroutines still running after Close", connectLoops())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRemoteCloseEndsReconnection: a session keeps its connection after its
// Remote is closed, but once that connection is lost the link gives up
// instead of dialing the server again, although the server still answers.
func TestRemoteCloseEndsReconnection(t *testing.T) {
	proxy := startChaosProxy(t, startReplicatedServer(t))
	remote, err := client.Dial(proxy.addr(), client.Options{FailoverTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c, err := remote.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/d", 0o755); err != nil {
		t.Fatal(err)
	}
	remote.Close()
	if _, err := c.Stat("/d"); err != nil {
		t.Fatalf("a live session after Close: %v", err)
	}
	before := remote.Stats()
	proxy.killAll()
	waitNoConnectLoop(t)
	if _, err := c.Stat("/d"); err == nil {
		t.Fatal("Stat succeeded over a link that lost its transport after Close")
	}
	if after := remote.Stats(); after.Dials != before.Dials || after.Failovers != before.Failovers {
		t.Fatalf("dials %d → %d, failovers %d → %d after Close: the link reconnected",
			before.Dials, after.Dials, before.Failovers, after.Failovers)
	}
	if _, err := remote.Attach(fsapi.Root); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Attach after Close = %v, want ErrClosed", err)
	}
}

// TestRouterCloseEndsReconnection: closing a router and then stopping its
// servers leaves no link dialing them for the rest of the failover budget.
func TestRouterCloseEndsReconnection(t *testing.T) {
	rt, _, _, srvs := serveClusterVols(t, []string{"/", "/d2"})
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"/a", "/d2"} { // a link to each shard
		if err := c.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	rt.Close()
	for _, srv := range srvs {
		srv.Shutdown()
	}
	waitNoConnectLoop(t)
	if _, err := c.Stat("/a"); err == nil {
		t.Fatal("Stat succeeded with every server stopped")
	}
}
