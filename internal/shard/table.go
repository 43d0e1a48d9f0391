package shard

import (
	"cmp"
	"path"
	"slices"
)

// Table is a Map compiled for routing. A map changes once per migration and
// is routed against once per operation, so everything Route would otherwise
// derive per call — which shards are prefix shards and in what order they
// must be tried, which are hash buckets and in what order they are counted,
// which one owns the root — is derived once here, and routing a path reads
// the table and nothing else: no allocation, no sort, no lock.
//
// A Table is immutable and refers to its map's shards by slot (the index in
// Map().Shards), so an owner can keep per-shard state in a slice beside it.
// Whoever holds a *Table holds one whole epoch: a new map is a new table,
// swapped in by one pointer store.
type Table struct {
	m        *Map
	prefixes []prefixSlot // non-root prefix shards, longest prefix first
	hash     []int32      // hash shards' slots, in shard-ID order (the bucket order)
	root     int32        // the "/" shard's slot, -1 when there is none
}

type prefixSlot struct {
	prefix string
	slot   int32
}

// Compile builds the route table of m. The table keeps m: the caller must
// not modify the map afterwards.
func Compile(m *Map) *Table {
	t := &Table{m: m, root: -1}
	for i := range m.Shards {
		switch pre := m.Shards[i].Prefix; pre {
		case "":
			t.hash = append(t.hash, int32(i))
		case "/":
			t.root = int32(i)
		default:
			t.prefixes = append(t.prefixes, prefixSlot{pre, int32(i)})
		}
	}
	// Stable, so equal keys keep map order: the first of them wins a route.
	slices.SortStableFunc(t.prefixes, func(a, b prefixSlot) int {
		return cmp.Compare(len(b.prefix), len(a.prefix))
	})
	slices.SortStableFunc(t.hash, func(a, b int32) int {
		return cmp.Compare(m.Shards[a].ID, m.Shards[b].ID)
	})
	return t
}

// Map returns the map the table was compiled from. Callers must not mutate
// it.
func (t *Table) Map() *Map { return t.m }

// Route maps a path to its owning shard. Precedence: the longest matching
// non-root prefix wins; otherwise hash shards bucket the path by the FNV-1a
// hash of its first component; otherwise the "/" shard takes it. The root
// path itself goes to the "/" shard when one exists, else to the first hash
// bucket (routers must agree, so the choice is fixed, not hashed). Returns
// nil only on an invalid map (no coverage).
func (t *Table) Route(p string) *Shard {
	if !canonical(p) {
		p = routedForm(p)
	}
	if slot := t.slot(p); slot >= 0 {
		return &t.m.Shards[slot]
	}
	return nil
}

// slot routes a path already in routed form, answering with the shard's
// index in Map().Shards, -1 for none.
func (t *Table) slot(p string) int {
	for i := range t.prefixes {
		pre := t.prefixes[i].prefix
		if len(p) >= len(pre) && p[:len(pre)] == pre && (len(p) == len(pre) || p[len(pre)] == '/') {
			return int(t.prefixes[i].slot)
		}
	}
	if len(t.hash) > 0 {
		if p == "/" {
			if t.root >= 0 {
				return int(t.root)
			}
			return int(t.hash[0])
		}
		// FNV-1a over the first component. The bucket is computed in uint32
		// on every platform: routers and servers of different builds must
		// agree on it.
		h := uint32(2166136261)
		for i := 1; i < len(p) && p[i] != '/'; i++ {
			h = (h ^ uint32(p[i])) * 16777619
		}
		return int(t.hash[h%uint32(len(t.hash))])
	}
	return int(t.root)
}

// canonical reports whether p is rooted and clean — "/" or "/a/b" with no
// empty, "." or ".." component and no trailing slash — so that cleaning and
// rooting it in either order gives p back. Clients send such paths almost
// always; proving it in one scan is what lets a route skip path.Clean.
func canonical(p string) bool {
	if len(p) == 0 || p[0] != '/' {
		return false
	}
	if len(p) == 1 {
		return true
	}
	start := 1 // of the component being scanned
	for i := 1; i <= len(p); i++ {
		if i < len(p) && p[i] != '/' {
			continue
		}
		switch i - start {
		case 0:
			return false
		case 1:
			if p[start] == '.' {
				return false
			}
		case 2:
			if p[start] == '.' && p[start+1] == '.' {
				return false
			}
		}
		start = i + 1
	}
	return true
}

// routedForm is the form Route has always routed a path in: cleaned, then
// rooted. (It differs from resolvedForm only for relative paths that climb:
// "../a" routes as "/../a" — first component ".." — and is resolved as
// "/a". Both ends of the wire route the same form, which is all that
// matters.)
func routedForm(p string) string {
	p = path.Clean(p)
	if p[0] != '/' {
		p = "/" + p
	}
	return p
}

// resolvedForm is the form the volume resolves a path in: rooted, then
// cleaned.
func resolvedForm(p string) string {
	if len(p) == 0 || p[0] != '/' {
		p = "/" + p
	}
	return path.Clean(p)
}
