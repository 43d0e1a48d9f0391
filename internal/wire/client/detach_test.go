package client

import (
	"errors"
	"testing"

	"simurgh/internal/fsapi"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
)

// TestRegisterFDAfterDetach: a create or open whose shard call returned just
// before the session detached enters its descriptor in the open-file table
// after Detach emptied it. It gets ErrClosed, not a descriptor (nor a write to
// a nil map).
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
	s := c.(*Session)
	if err := s.Detach(); err != nil {
		t.Fatal(err)
	}
	req := wire.Request{Op: wire.OpCreate, Path: "/f"}
	resp := wire.Response{Op: wire.OpCreate, FD: 3}
	if err := s.track(0, &req, &resp); !errors.Is(err, ErrClosed) {
		t.Fatalf("an open answered after Detach: descriptor %d, %v; want ErrClosed", resp.FD, err)
	}
}
