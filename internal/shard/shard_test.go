package shard

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"path"
	"sort"
	"strings"
	"testing"

	"simurgh/internal/wire"
)

// twoHash is a 2-bucket hash map with a distinct owner per shard.
func twoHash() *Map {
	return &Map{Epoch: 1, Shards: []Shard{
		{ID: 0, Addrs: []string{"h0:1"}},
		{ID: 1, Addrs: []string{"h1:1"}},
	}}
}

func TestRoutePrecedence(t *testing.T) {
	m := &Map{Epoch: 1, Shards: []Shard{
		{ID: 0, Prefix: "/", Addrs: []string{"root:1"}},
		{ID: 1, Prefix: "/warm", Addrs: []string{"warm:1"}},
		{ID: 2, Prefix: "/warm/deep", Addrs: []string{"deep:1"}},
		{ID: 3, Addrs: []string{"h0:1"}},
		{ID: 4, Addrs: []string{"h1:1"}},
	}}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		path string
		want uint32
	}{
		{"/warm", 1},          // exact prefix match
		{"/warm/x", 1},        // subtree of /warm
		{"/warm/deep", 2},     // longer prefix wins
		{"/warm/deep/a/b", 2}, // subtree of the longer prefix
		{"/", 0},              // root goes to the "/" shard when one exists
	}
	for _, c := range cases {
		got := m.Route(c.path)
		if got == nil || got.ID != c.want {
			t.Errorf("Route(%q) = %+v, want shard %d", c.path, got, c.want)
		}
	}
	// Paths matching no prefix fall to the hash shards (bucket choice is
	// the hash's business, not this test's).
	for _, p := range []string{"/warmer", "/a/b/c", "/etc"} {
		if got := m.Route(p); got == nil || got.Prefix != "" {
			t.Errorf("Route(%q) = %+v, want a hash shard", p, got)
		}
	}
	// Same first component must always land in the same bucket; cleaning
	// and rooting happen before routing.
	if a, b := m.Route("/docs/a"), m.Route("/docs/b/c"); a.ID != b.ID {
		t.Errorf("same first component routed to shards %d and %d", a.ID, b.ID)
	}
	if a, b := m.Route("/warm/../etc"), m.Route("/etc"); a.ID != b.ID {
		t.Errorf("uncleaned path routed to %d, cleaned to %d", a.ID, b.ID)
	}
	if a, b := m.Route("relative"), m.Route("/relative"); a.ID != b.ID {
		t.Errorf("unrooted path routed to %d, rooted to %d", a.ID, b.ID)
	}
}

func TestRouteRootWithoutRootShard(t *testing.T) {
	m := twoHash()
	if got := m.Route("/"); got == nil || got.ID != 0 {
		t.Errorf("Route(/) = %+v, want the lowest-ID hash shard", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []struct {
		name string
		m    *Map
		want string
	}{
		{"empty", &Map{Epoch: 1}, "no shards"},
		{"dup id", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "/", Addrs: []string{"a:1"}},
			{ID: 0, Prefix: "/warm", Addrs: []string{"b:1"}},
		}}, "duplicate shard id"},
		{"dup prefix", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "/", Addrs: []string{"a:1"}},
			{ID: 1, Prefix: "/", Addrs: []string{"b:1"}},
		}}, "duplicate prefix"},
		{"no addrs", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "/"},
		}}, "no addresses"},
		{"unrooted", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "warm", Addrs: []string{"a:1"}},
		}}, "not rooted"},
		{"unclean", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "/warm/", Addrs: []string{"a:1"}},
			{ID: 1, Addrs: []string{"b:1"}},
		}}, "not clean"},
		{"uncovered", &Map{Epoch: 1, Shards: []Shard{
			{ID: 0, Prefix: "/warm", Addrs: []string{"a:1"}},
		}}, "covers no root"},
	}
	for _, c := range bad {
		err := c.m.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate() = %v, want error containing %q", c.name, err, c.want)
		}
	}
	if err := twoHash().Validate(); err != nil {
		t.Errorf("valid hash map rejected: %v", err)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	m := &Map{Epoch: 42, Shards: []Shard{
		{ID: 0, Prefix: "/", Addrs: []string{"a:1", "a:2"}, State: StateServing},
		{ID: 7, Prefix: "/warm", Addrs: []string{"b:1"}, State: StateMigrating},
		{ID: 9, Addrs: []string{"c:1"}},
	}}
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	assertMapsEqual(t, m, got)

	// Truncations at every length must error, never panic.
	enc := m.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := Decode(enc[:i]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", i, len(enc))
		}
	}

	// JSON round trip (the -shard-map file format).
	got, err = ParseJSON(m.JSON())
	if err != nil {
		t.Fatal(err)
	}
	assertMapsEqual(t, m, got)
}

func assertMapsEqual(t *testing.T, want, got *Map) {
	t.Helper()
	if got.Epoch != want.Epoch || len(got.Shards) != len(want.Shards) {
		t.Fatalf("round trip: got %+v, want %+v", got, want)
	}
	for i := range want.Shards {
		w, g := want.Shards[i], got.Shards[i]
		if g.ID != w.ID || g.Prefix != w.Prefix || g.State != w.State ||
			len(g.Addrs) != len(w.Addrs) {
			t.Fatalf("shard %d: got %+v, want %+v", i, g, w)
		}
		for j := range w.Addrs {
			if g.Addrs[j] != w.Addrs[j] {
				t.Fatalf("shard %d addr %d: got %q, want %q", i, j, g.Addrs[j], w.Addrs[j])
			}
		}
	}
}

func TestSingleNode(t *testing.T) {
	m := SingleNode("n:1", 0)
	if len(m.Shards) != 1 || m.Shards[0].Prefix != "/" {
		t.Fatalf(`SingleNode(0) = %+v, want one "/" shard`, m.Shards)
	}
	m = SingleNode("n:1", 4)
	if len(m.Shards) != 4 {
		t.Fatalf("SingleNode(4) has %d shards", len(m.Shards))
	}
	for _, sh := range m.Shards {
		if sh.Prefix != "" || len(sh.Addrs) != 1 || sh.Addrs[0] != "n:1" {
			t.Fatalf("SingleNode(4) shard %+v, want hash shard at n:1", sh)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := twoHash()
	c := m.Clone()
	c.Shards[0].Addrs[0] = "mutated:1"
	c.Shards[1].ID = 99
	if m.Shards[0].Addrs[0] != "h0:1" || m.Shards[1].ID != 1 {
		t.Fatalf("Clone shares state with the original: %+v", m.Shards)
	}
}

func TestAuthorityServesAndFences(t *testing.T) {
	m := &Map{Epoch: 3, Shards: []Shard{
		{ID: 0, Prefix: "/", Addrs: []string{"other:1"}},
		{ID: 1, Prefix: "/warm/deep", Addrs: []string{"self:1"}},
		{ID: 2, Addrs: []string{"other:1"}},
	}}
	a, err := NewAuthority(m, "self:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if mv := a.MovedPath("/warm/deep/f"); mv != nil {
		t.Errorf("served path fenced: %+v", mv)
	}
	// Root and scaffolding ancestors of served prefixes are shared
	// namespace: never fenced while the node serves anything.
	for _, p := range []string{"/", "/warm"} {
		if mv := a.MovedPath(p); mv != nil {
			t.Errorf("scaffold path %q fenced: %+v", p, mv)
		}
	}
	mv := a.MovedPath("/elsewhere")
	if mv == nil || mv.Shard != 2 || mv.Epoch != 3 || mv.Addr != "other:1" {
		t.Errorf("unserved path: Moved = %+v, want shard 2 epoch 3 at other:1", mv)
	}

	if mv := a.MovedShard(1, true); mv != nil {
		t.Errorf("claimed served shard fenced: %+v", mv)
	}
	if mv := a.MovedShard(0, true); mv == nil || mv.Shard != 0 {
		t.Errorf("claimed unserved shard: Moved = %+v, want shard 0", mv)
	}
	// Unclaimed sessions pass while the node serves anything.
	if mv := a.MovedShard(0, false); mv != nil {
		t.Errorf("unclaimed session fenced on a serving node: %+v", mv)
	}

	if mv := a.CheckAttach(wire.AttachClaim{Shard: 1, Epoch: 3}); mv != nil {
		t.Errorf("attach claim for served shard refused: %+v", mv)
	}
	if mv := a.CheckAttach(wire.AttachClaim{Shard: 0, Epoch: 3}); mv == nil {
		t.Error("attach claim for unserved shard accepted")
	}
}

func TestAuthorityInstall(t *testing.T) {
	m1 := &Map{Epoch: 1, Shards: []Shard{
		{ID: 0, Addrs: []string{"self:1"}},
		{ID: 1, Addrs: []string{"self:1"}},
	}}
	var retired []uint32
	var fencedDuringRetire bool
	var a *Authority
	a, err := NewAuthority(m1, "self:1", func(lost []uint32, next *Map) error {
		retired = append(retired, lost...)
		// The fence must already be up when the drain starts: an operation
		// for the lost shard answers Moved even though the drain has not
		// finished.
		if mv := a.MovedShard(1, true); mv != nil && mv.Epoch == next.Epoch {
			fencedDuringRetire = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	m2 := &Map{Epoch: 2, Shards: []Shard{
		{ID: 0, Addrs: []string{"self:1"}},
		{ID: 1, Addrs: []string{"new:1"}},
	}}
	if _, err := a.Install(m2.Encode()); err != nil {
		t.Fatal(err)
	}
	if len(retired) != 1 || retired[0] != 1 {
		t.Fatalf("onRetire got %v, want [1]", retired)
	}
	if !fencedDuringRetire {
		t.Error("shard 1 was not fenced while its retire drain ran")
	}
	if a.Current().Epoch != 2 {
		t.Fatalf("epoch %d after install, want 2", a.Current().Epoch)
	}

	// Identical re-push: idempotent, no second retire.
	if _, err := a.Install(m2.Encode()); err != nil {
		t.Fatalf("idempotent re-push refused: %v", err)
	}
	if len(retired) != 1 {
		t.Fatalf("re-push re-ran onRetire: %v", retired)
	}

	// A different map at the same epoch is a split brain, not a retry.
	m2b := m2.Clone()
	m2b.Shards[1].Addrs = []string{"third:1"}
	if _, err := a.Install(m2b.Encode()); err == nil {
		t.Error("conflicting install at the current epoch accepted")
	}
	// Stale epochs are refused.
	if _, err := a.Install(m1.Encode()); err == nil {
		t.Error("stale-epoch install accepted")
	}

	// MapFor serves only callers behind the current epoch.
	if a.MapFor(2) != nil {
		t.Error("MapFor(current) should be nil")
	}
	if a.MapFor(1) == nil {
		t.Error("MapFor(stale) should return the payload")
	}
}

// --- the routing oracle -------------------------------------------------
//
// oracleRoute is Route as it was before the map was compiled: every rule
// re-derived from the shard list on every call. The compiled table must
// answer exactly as it does.

func oracleHashShards(m *Map) []*Shard {
	var hs []*Shard
	for i := range m.Shards {
		if m.Shards[i].Prefix == "" {
			hs = append(hs, &m.Shards[i])
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].ID < hs[j].ID })
	return hs
}

func oracleFirstComponent(p string) string {
	p = strings.TrimPrefix(p, "/")
	if i := strings.IndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return p
}

func oracleRoute(m *Map, p string) *Shard {
	p = path.Clean(p)
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	var best *Shard
	var root *Shard
	for i := range m.Shards {
		sh := &m.Shards[i]
		pre := sh.Prefix
		if pre == "" {
			continue
		}
		if pre == "/" {
			root = sh
			continue
		}
		if p == pre || strings.HasPrefix(p, pre+"/") {
			if best == nil || len(pre) > len(best.Prefix) {
				best = sh
			}
		}
	}
	if best != nil {
		return best
	}
	hs := oracleHashShards(m)
	if p == "/" {
		if root != nil {
			return root
		}
		if len(hs) > 0 {
			return hs[0]
		}
		return nil
	}
	if len(hs) > 0 {
		h := fnv.New32a()
		h.Write([]byte(oracleFirstComponent(p)))
		return hs[int(h.Sum32())%len(hs)] // the oracle runs where int is 64 bits
	}
	return root
}

// oracleServes is MovedPath's serve-or-fence decision as it was: nil ⇒
// serve, else the shard the Moved names.
func oracleServes(m *Map, self, p string) (serve bool, moved uint32) {
	serves := map[uint32]bool{}
	scaffold := map[string]bool{}
	for i := range m.Shards {
		sh := &m.Shards[i]
		for _, addr := range sh.Addrs {
			if addr == self {
				serves[sh.ID] = true
				for d := path.Dir(sh.Prefix); len(d) > 1; d = path.Dir(d) {
					scaffold[d] = true
				}
				break
			}
		}
	}
	if len(serves) > 0 {
		cp := p
		if !strings.HasPrefix(cp, "/") {
			cp = "/" + cp
		}
		if cp = path.Clean(cp); cp == "/" || scaffold[cp] {
			return true, 0
		}
	}
	sh := oracleRoute(m, p)
	if sh == nil {
		return false, NoShard
	}
	return serves[sh.ID], sh.ID
}

// randomMap draws a valid map: nested prefix shards, maybe a "/" shard, hash
// shards, IDs shuffled against list order, two owner addresses.
func randomMap(rng *rand.Rand) *Map {
	dirs := []string{"/a", "/a/b", "/a/b/c", "/a/bb", "/b", "/b/c/d", "/warm", "/warm/deep", "/x.y", "/..."}
	rng.Shuffle(len(dirs), func(i, j int) { dirs[i], dirs[j] = dirs[j], dirs[i] })
	var shards []Shard
	for _, d := range dirs[:rng.Intn(len(dirs)+1)] {
		shards = append(shards, Shard{Prefix: d})
	}
	nhash := rng.Intn(5)
	hasRoot := rng.Intn(2) == 0
	if nhash == 0 && !hasRoot {
		if rng.Intn(2) == 0 {
			nhash = 1 + rng.Intn(16)
		} else {
			hasRoot = true
		}
	}
	if hasRoot {
		shards = append(shards, Shard{Prefix: "/"})
	}
	for i := 0; i < nhash; i++ {
		shards = append(shards, Shard{})
	}
	rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
	for i, id := range rng.Perm(len(shards)) {
		shards[i].ID = uint32(id * 3)
		shards[i].Addrs = []string{fmt.Sprintf("n%d:1", rng.Intn(2))}
	}
	return &Map{Epoch: 1 + uint64(rng.Intn(9)), Shards: shards}
}

// routeProbes are paths every map is routed for, whatever the fuzzer adds:
// canonical ones, and every way of not being canonical.
var routeProbes = []string{
	"/", "", ".", "..", "/.", "/..", "//", "/./", "/a", "/a/", "/a/b", "/a/b/c/d", "/a/bb/x", "/ab",
	"//a/./b/../c", "/a//b", "/a/./b", "/a/b/..", "/a/b/.", "/warm/deep/f", "/warm/../b", "/warmer",
	"relative", "a/b", "./a", "../a", "../../warm", "/x.y/z", "/.../z", "/..a", "/a/..b", "/.hidden",
	"/b/c/d", "/b/c", "/b/c/d/", "/etc/passwd", "/d000012/f000345",
}

func checkRouting(t *testing.T, m *Map, p string) {
	t.Helper()
	tab := Compile(m)
	want := oracleRoute(m, p)
	for name, got := range map[string]*Shard{"Table.Route": tab.Route(p), "Map.Route": m.Route(p)} {
		if (got == nil) != (want == nil) || (got != nil && got.ID != want.ID) {
			t.Fatalf("%s(%q) = %+v, oracle says %+v\nmap: %s", name, p, got, want, m.JSON())
		}
	}
	for _, self := range []string{"n0:1", "n1:1", "nobody:1"} {
		a, err := NewAuthority(m, self, nil)
		if err != nil {
			t.Fatal(err)
		}
		serve, moved := oracleServes(m, self, p)
		mv := a.MovedPath(p)
		if serve != (mv == nil) || (mv != nil && (mv.Shard != moved || mv.Epoch != m.Epoch)) {
			t.Fatalf("%s: MovedPath(%q) = %+v, oracle says serve=%v shard=%d\nmap: %s", self, p, mv, serve, moved, m.JSON())
		}
	}
}

// FuzzRoute is the differential test of the compiled route table: random
// valid maps × paths, canonical or not, must route exactly as the oracle
// does, through the table, through (*Map).Route, and through every node's
// MovedPath (which must also agree on the root and on scaffold ancestors).
func FuzzRoute(f *testing.F) {
	for seed := int64(0); seed < 64; seed++ {
		f.Add(seed, routeProbes[int(seed)%len(routeProbes)])
	}
	f.Fuzz(func(t *testing.T, seed int64, p string) {
		if len(p) > wire.MaxPath {
			return
		}
		m := randomMap(rand.New(rand.NewSource(seed)))
		if err := m.Validate(); err != nil {
			t.Fatalf("randomMap drew an invalid map: %v", err)
		}
		checkRouting(t, m, p)
		for _, probe := range routeProbes {
			checkRouting(t, m, probe)
		}
	})
}

// TestCanonical pins the scan that lets a route skip path.Clean: it must
// say yes only to paths that cleaning and rooting, in either order, leave
// alone.
func TestCanonical(t *testing.T) {
	for _, p := range append([]string{"/a/b/c", "/.a/..b/c..", "/a b"}, routeProbes...) {
		want := p == routedForm(p) && p == resolvedForm(p)
		if got := canonical(p); got != want {
			t.Errorf("canonical(%q) = %v, want %v", p, got, want)
		}
	}
}

// TestHashBucketsGolden pins the bucket of fixed names in 2-, 3- and
// 16-bucket maps. The values are what 64-bit builds have always computed;
// the bucket arithmetic is uint32, so every platform computes them. A
// router and a server that disagreed on one of these would bounce each
// other's operations forever.
func TestHashBucketsGolden(t *testing.T) {
	names := []string{"a", "docs", "etc", "home", "d000000", "d000001", "d000017", "attach-probe-0", "lost+found", "\xff\xfe"}
	golden := map[int][]uint32{
		2:  {0, 0, 1, 0, 1, 0, 1, 0, 0, 0},
		3:  {1, 0, 2, 2, 1, 2, 1, 2, 2, 0},
		16: {12, 2, 13, 14, 11, 8, 3, 2, 4, 0},
	}
	for _, buckets := range []int{2, 3, 16} {
		m := SingleNode("n:1", buckets)
		// IDs against list order: buckets count in ID order, not list order.
		for i, j := 0, len(m.Shards)-1; i < j; i, j = i+1, j-1 {
			m.Shards[i], m.Shards[j] = m.Shards[j], m.Shards[i]
		}
		tab := Compile(m)
		var got []uint32
		for _, name := range names {
			got = append(got, tab.Route("/"+name+"/x").ID)
		}
		if fmt.Sprint(got) != fmt.Sprint(golden[buckets]) {
			t.Errorf("%d buckets: names route to %v, golden %v", buckets, got, golden[buckets])
		}
	}
}

var routeSink *Shard
var movedSink *wire.Moved

// benchMap builds the maps BenchmarkRoute and BenchmarkMovedPath route
// against: hash shards, with or without four prefix shards ahead of them.
func benchMap(hash int, prefixes bool) *Map {
	m := &Map{Epoch: 1}
	if prefixes {
		for i, pre := range []string{"/warm", "/warm/deep", "/cold/archive", "/scratch"} {
			m.Shards = append(m.Shards, Shard{ID: uint32(100 + i), Prefix: pre, Addrs: []string{"self:1"}})
		}
	}
	for i := 0; i < hash; i++ {
		m.Shards = append(m.Shards, Shard{ID: uint32(i), Addrs: []string{"self:1"}})
	}
	return m
}

var benchPaths = []string{"/d000012/f000345", "/d000913/f000001", "/warm/deep/a/b", "/home/u/notes.txt"}

// BenchmarkRoute is the client's per-operation routing cost. bench-smoke
// gates it at 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	for _, hash := range []int{2, 16} {
		for _, prefixes := range []bool{false, true} {
			b.Run(fmt.Sprintf("hash%d/prefixes=%v", hash, prefixes), func(b *testing.B) {
				tab := Compile(benchMap(hash, prefixes))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					routeSink = tab.Route(benchPaths[i%len(benchPaths)])
				}
			})
		}
	}
}

// BenchmarkMovedPath is the server's per-operation fence cost. bench-smoke
// gates it at 0 allocs/op.
func BenchmarkMovedPath(b *testing.B) {
	for _, hash := range []int{2, 16} {
		for _, prefixes := range []bool{false, true} {
			b.Run(fmt.Sprintf("hash%d/prefixes=%v", hash, prefixes), func(b *testing.B) {
				a, err := NewAuthority(benchMap(hash, prefixes), "self:1", nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					movedSink = a.MovedPath(benchPaths[i%len(benchPaths)])
				}
			})
		}
	}
}
