package client

import (
	"errors"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/shard"
)

// TestRegisterFDAfterDetach: a create or open whose shard call returned just
// before the routed session detached registers its descriptor after Detach
// emptied the table. It gets ErrClosed, not a descriptor (nor a write to a
// nil map).
func TestRegisterFDAfterDetach(t *testing.T) {
	m := &shard.Map{Epoch: 1, Shards: []shard.Shard{{ID: 0, Prefix: "/", Addrs: []string{"127.0.0.1:1"}}}}
	rt, err := NewRouter(m, nil, RouterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	c, err := rt.Attach(fsapi.Root)
	if err != nil {
		t.Fatal(err)
	}
	ss := c.(*RoutedSession)
	if err := ss.Detach(); err != nil {
		t.Fatal(err)
	}
	if fd, err := ss.registerFD(0, 3); !errors.Is(err, ErrClosed) {
		t.Fatalf("registerFD after Detach = (%d, %v), want ErrClosed", fd, err)
	}
}
