package simurgh_test

import (
	"errors"
	"testing"

	"simurgh"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	vol, err := simurgh.Create(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	defer vol.Unmount()
	c, err := vol.Attach(simurgh.Root)
	if err != nil {
		t.Fatal(err)
	}
	fd, err := c.Create("/hello", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("facade")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat("/hello")
	if err != nil || st.Size != 6 {
		t.Fatalf("stat = (%+v, %v)", st, err)
	}
	if _, err := c.Open("/absent", simurgh.ORdonly, 0); !errors.Is(err, simurgh.ErrNotExist) {
		t.Fatalf("err = %v", err)
	}
}

func TestFacadeCrashAndRemount(t *testing.T) {
	vol, err := simurgh.CreateWithOptions(32<<20, simurgh.Options{Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := vol.Attach(simurgh.Root)
	fd, _ := c.Create("/durable", 0o644)
	c.Write(fd, []byte("kept"))
	c.Close(fd)
	vol.Crash()
	stats, err := vol.Remount(simurgh.Options{Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WasClean {
		t.Fatal("crash reported as clean shutdown")
	}
	c2, _ := vol.Attach(simurgh.Root)
	fd, err = c2.Open("/durable", simurgh.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c2.Read(fd, buf)
	if string(buf[:n]) != "kept" {
		t.Fatalf("content = %q", buf[:n])
	}
}

// TestFacadeRemountTracked: a volume created untracked and remounted with
// Tracked can crash, and the crash keeps what was persisted.
func TestFacadeRemountTracked(t *testing.T) {
	vol, err := simurgh.Create(32 << 20)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := vol.Attach(simurgh.Root)
	fd, _ := c.Create("/before", 0o644)
	c.Write(fd, []byte("kept"))
	c.Close(fd)
	vol.Unmount()
	if _, err := vol.Remount(simurgh.Options{Tracked: true}); err != nil {
		t.Fatal(err)
	}
	vol.Crash()
	stats, err := vol.Remount(simurgh.Options{Tracked: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WasClean {
		t.Fatal("crash reported as clean shutdown")
	}
	c2, _ := vol.Attach(simurgh.Root)
	fd, err = c2.Open("/before", simurgh.ORdonly, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, _ := c2.Read(fd, buf)
	if string(buf[:n]) != "kept" {
		t.Fatalf("content = %q", buf[:n])
	}
}

func TestFacadeRelaxedOption(t *testing.T) {
	vol, err := simurgh.CreateWithOptions(32<<20, simurgh.Options{RelaxedWrites: true, ChargeProtectedCalls: true})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := vol.Attach(simurgh.Root)
	fd, _ := c.Create("/f", 0o644)
	if _, err := c.Write(fd, []byte("relaxed")); err != nil {
		t.Fatal(err)
	}
}

func TestFacadePermissionsAcrossClients(t *testing.T) {
	vol, _ := simurgh.Create(32 << 20)
	root, _ := vol.Attach(simurgh.Root)
	root.Chmod("/", 0o755) // non-root cannot write the root dir
	user, _ := vol.Attach(simurgh.Cred{UID: 7, GID: 7})
	if _, err := user.Create("/nope", 0o644); !errors.Is(err, simurgh.ErrPerm) {
		t.Fatalf("err = %v, want ErrPerm", err)
	}
}
