// Package shard partitions the Simurgh namespace across independent
// replica groups. The unit of distribution is the shard: a slice of the
// namespace (a path-prefix subtree, or one bucket of a hash partition for
// flat roots) served in its entirety by one replica group. A small
// epoch-versioned shard map names every shard's owner group; every node
// serves the map over the wire (KindMapGet/KindMapOK), clients route each
// operation by path against a cached copy, and a node answers operations
// for shards it does not serve with CodeMoved/KindMoved so a stale client
// knows to refetch.
//
// The map is the only centralized piece of state — in the spirit of
// KucoFS's trusted-but-slow control plane, it changes rarely (an epoch bump
// per migration), is tiny (a few hundred bytes), and never sits on the data
// path: once a client holds the current epoch it talks straight to owner
// groups with no coordinator in between, preserving the paper's
// decentralized fast path.
//
// Live migration moves one shard to another group without downtime: the
// target joins the owner group as a replication backup (snapshot stream +
// log replay, with the sessions' open descriptors in the join manifest so
// even long-lived sessions transfer), the map's epoch flips with the old owner
// fencing and draining first, and the old group answers Moved while clients
// rehome. See Migrate.
package shard

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"path"
	"strings"

	"simurgh/internal/wire"
)

// Limits for untrusted map payloads.
const (
	// MaxShards bounds the shards in one map.
	MaxShards = 256
	// MaxAddrs bounds one shard's replica-group address list.
	MaxAddrs = 16
)

// State is a shard's lifecycle state in the map.
type State uint8

const (
	// StateServing is the steady state: the owner group serves the shard.
	StateServing State = 0
	// StateMigrating marks a shard whose ownership is moving; the listed
	// group still serves it, but clients should expect a Moved soon.
	StateMigrating State = 1
)

// String returns the state's display name.
func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateMigrating:
		return "migrating"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// MarshalJSON renders the state as its display name.
func (s State) MarshalJSON() ([]byte, error) {
	return json.Marshal(s.String())
}

// UnmarshalJSON accepts the display name (or a bare number for forward
// compatibility).
func (s *State) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err == nil {
		switch str {
		case "serving":
			*s = StateServing
		case "migrating":
			*s = StateMigrating
		default:
			return fmt.Errorf("shard: unknown state %q", str)
		}
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*s = State(n)
	return nil
}

// Shard is one namespace slice and the replica group that owns it.
type Shard struct {
	// ID is the shard's stable identity; migrations change a shard's
	// addresses, never its ID.
	ID uint32 `json:"id"`
	// Prefix is the subtree this shard owns ("/", "/warm", ...). The empty
	// string marks a hash-fallback shard: paths matching no prefix shard
	// are bucketed across the hash shards by their first path component.
	Prefix string `json:"prefix"`
	// Addrs lists the owner group's node addresses (primary and backups,
	// in no guaranteed order — a client that reaches a backup follows its
	// epoch-0 Moved to the primary).
	Addrs []string `json:"addrs"`
	// State is the shard's lifecycle state.
	State State `json:"state"`
}

// Map is the epoch-versioned shard table. Higher epochs strictly supersede
// lower ones; nodes refuse installs that do not advance the epoch and
// clients discard fetched maps older than what they hold.
type Map struct {
	Epoch  uint64  `json:"epoch"`
	Shards []Shard `json:"shards"`
}

// Validate checks structural soundness: at least one shard, unique IDs,
// unique prefixes, rooted clean prefixes, non-empty bounded address lists,
// and total coverage (a "/" shard or at least one hash shard, so every
// path routes somewhere).
func (m *Map) Validate() error {
	if len(m.Shards) == 0 {
		return errors.New("shard: map has no shards")
	}
	if len(m.Shards) > MaxShards {
		return fmt.Errorf("shard: %d shards exceeds %d", len(m.Shards), MaxShards)
	}
	ids := make(map[uint32]bool, len(m.Shards))
	prefixes := make(map[string]bool, len(m.Shards))
	covered := false
	for i := range m.Shards {
		sh := &m.Shards[i]
		if ids[sh.ID] {
			return fmt.Errorf("shard: duplicate shard id %d", sh.ID)
		}
		ids[sh.ID] = true
		if len(sh.Addrs) == 0 {
			return fmt.Errorf("shard %d: no addresses", sh.ID)
		}
		if len(sh.Addrs) > MaxAddrs {
			return fmt.Errorf("shard %d: %d addresses exceeds %d", sh.ID, len(sh.Addrs), MaxAddrs)
		}
		if sh.Prefix == "" {
			covered = true // hash shard: catches everything unmatched
			continue
		}
		if !strings.HasPrefix(sh.Prefix, "/") {
			return fmt.Errorf("shard %d: prefix %q is not rooted", sh.ID, sh.Prefix)
		}
		if cleaned := path.Clean(sh.Prefix); cleaned != sh.Prefix {
			return fmt.Errorf("shard %d: prefix %q is not clean (want %q)", sh.ID, sh.Prefix, cleaned)
		}
		if prefixes[sh.Prefix] {
			return fmt.Errorf("shard: duplicate prefix %q", sh.Prefix)
		}
		prefixes[sh.Prefix] = true
		if sh.Prefix == "/" {
			covered = true
		}
	}
	if !covered {
		return errors.New(`shard: map covers no root (need a "/" prefix shard or a hash shard)`)
	}
	return nil
}

// Clone returns a deep copy safe to mutate independently.
func (m *Map) Clone() *Map {
	out := &Map{Epoch: m.Epoch, Shards: make([]Shard, len(m.Shards))}
	for i := range m.Shards {
		out.Shards[i] = m.Shards[i]
		out.Shards[i].Addrs = append([]string(nil), m.Shards[i].Addrs...)
	}
	return out
}

// ByID returns the shard with the given ID, or nil.
func (m *Map) ByID(id uint32) *Shard {
	for i := range m.Shards {
		if m.Shards[i].ID == id {
			return &m.Shards[i]
		}
	}
	return nil
}

// Route maps a path to its owning shard; see Table.Route for the rules. It
// compiles the map on every call, which suits tools that route a handful of
// paths against a map they are still building. Anything that routes per
// operation compiles once and keeps the Table.
func (m *Map) Route(p string) *Shard {
	return Compile(m).Route(p)
}

// --- binary codec (KindMapOK / KindMapSet payloads) ---------------------

// Encode serializes the map for the wire.
func (m *Map) Encode() []byte {
	b := binary.LittleEndian.AppendUint64(nil, m.Epoch)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(m.Shards)))
	for i := range m.Shards {
		sh := &m.Shards[i]
		b = binary.LittleEndian.AppendUint32(b, sh.ID)
		b = append(b, byte(sh.State))
		b = appendStr16(b, sh.Prefix)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(sh.Addrs)))
		for _, a := range sh.Addrs {
			b = appendStr16(b, a)
		}
	}
	return b
}

func appendStr16(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

// Decode parses an encoded map, validating it.
func Decode(b []byte) (*Map, error) {
	d := dec{b: b}
	m := &Map{Epoch: d.u64()}
	n := int(d.u16())
	if n > MaxShards {
		return nil, fmt.Errorf("shard: %d shards exceeds %d", n, MaxShards)
	}
	for i := 0; i < n && d.err == nil; i++ {
		var sh Shard
		sh.ID = d.u32()
		sh.State = State(d.u8())
		sh.Prefix = d.str()
		na := int(d.u16())
		if na > MaxAddrs {
			return nil, fmt.Errorf("shard: %d addresses exceeds %d", na, MaxAddrs)
		}
		for j := 0; j < na && d.err == nil; j++ {
			sh.Addrs = append(sh.Addrs, d.str())
		}
		m.Shards = append(m.Shards, sh)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("shard: %d trailing bytes in map", len(d.b))
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// dec is a poisoning little-endian consumer, mirroring the wire package's
// reader for this package's own payloads.
type dec struct {
	b   []byte
	err error
}

var errTruncatedMap = errors.New("shard: truncated map")

func (d *dec) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.err = errTruncatedMap
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil || len(d.b) < 2 {
		d.err = errTruncatedMap
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.err = errTruncatedMap
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.err = errTruncatedMap
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *dec) str() string {
	n := int(d.u16())
	if d.err != nil {
		return ""
	}
	if n > wire.MaxPath {
		d.err = fmt.Errorf("shard: string length %d > %d", n, wire.MaxPath)
		return ""
	}
	if n > len(d.b) {
		d.err = errTruncatedMap
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

// --- JSON form (map files, simurghsh display) ---------------------------

// ParseJSON loads a map from its JSON form (the -shard-map file format) and
// validates it.
func ParseJSON(b []byte) (*Map, error) {
	var m Map
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing map: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// JSON renders the map in its file form.
func (m *Map) JSON() []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil { // a Map has no unmarshalable fields
		panic(err)
	}
	return append(b, '\n')
}

// SingleNode builds the trivial map for a standalone node: n hash shards
// (n > 1) or one "/" shard, all owned by addr. This is what `simurghd
// -shards N` serves so a sharded client can talk to an unsharded
// deployment.
func SingleNode(addr string, n int) *Map {
	m := &Map{Epoch: 1}
	if n <= 1 {
		m.Shards = []Shard{{ID: 0, Prefix: "/", Addrs: []string{addr}}}
		return m
	}
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, Shard{ID: uint32(i), Addrs: []string{addr}})
	}
	return m
}
