package shard

import (
	"bytes"
	"fmt"
	"io"
	"path"
	"sync"
	"sync/atomic"

	"simurgh/internal/export"
	"simurgh/internal/wire"
)

// NoShard is the Moved.Shard value for operations that could not be
// attributed to any shard (descriptor operations on an unclaimed session
// hitting a fully retired node).
const NoShard = ^uint32(0)

// Authority is a node's view of the shard map and the arbiter of what the
// node serves. It implements the server's Sharding hook: the handshake asks
// it to verify shard claims and serve/install maps, and the batch executor
// asks it per operation whether the path's shard is still served here.
//
// The serving decision is one atomic pointer load on the hot path; installs
// swap the whole state at once, so the instant a new map is in place every
// subsequent operation for a lost shard answers Moved — the fence the
// migration cutover relies on (the server re-checks under the replication
// op gate, making the fence precise, not just prompt).
type Authority struct {
	self string
	// onRetire is called after an install that removes shards this node was
	// serving, with the lost IDs and the newly installed map. The daemon
	// wires it to the replication drain: wait until the new owners' links
	// have acknowledged the whole log. An error
	// fails the install RPC (the fence stays in place) so the migration
	// coordinator knows the handoff is incomplete.
	onRetire func(lost []uint32, next *Map) error

	mu    sync.Mutex // serializes installs
	state atomic.Pointer[authState]
}

// authState is one immutable generation of the authority's view: the map
// compiled for routing, and beside it what this node knows about each of the
// map's shards, indexed by the table's slots.
type authState struct {
	tab       *Table
	payload   []byte
	slots     []slotState      // parallel to tab.Map().Shards
	byID      map[uint32]int32 // shard ID → slot, for claims
	servesAny bool
	scaffold  map[string]bool // strict ancestors of served prefixes
}

// slotState is one shard as this node sees it.
type slotState struct {
	serves bool
	ops    *atomic.Uint64 // served-op counter
}

// buildState compiles m into the next generation. The state is complete
// before it is published, so a reader that loads it never sees a table of
// one epoch beside serve bits of another.
func (a *Authority) buildState(m *Map, payload []byte) *authState {
	st := &authState{
		tab:      Compile(m),
		payload:  payload,
		slots:    make([]slotState, len(m.Shards)),
		byID:     make(map[uint32]int32, len(m.Shards)),
		scaffold: make(map[string]bool),
	}
	prev := a.state.Load()
	for i := range m.Shards {
		sh := &m.Shards[i]
		st.byID[sh.ID] = int32(i)
		for _, addr := range sh.Addrs {
			if addr == a.self {
				st.slots[i].serves = true
				st.servesAny = true
				// The scaffolding directories above a served prefix live on
				// this volume too (the router provisions them); operations on
				// them must not be fenced even though they route elsewhere.
				for d := path.Dir(sh.Prefix); len(d) > 1; d = path.Dir(d) {
					st.scaffold[d] = true
				}
				break
			}
		}
		// Counters survive installs so a migration doesn't zero the node's
		// op accounting mid-scrape.
		st.slots[i].ops = new(atomic.Uint64)
		if prev != nil {
			if slot, ok := prev.byID[sh.ID]; ok {
				st.slots[i].ops = prev.slots[slot].ops
			}
		}
	}
	return st
}

// servesID reports whether this node serves the shard with the given ID.
func (st *authState) servesID(id uint32) bool {
	slot, ok := st.byID[id]
	return ok && st.slots[slot].serves
}

// NewAuthority builds an authority for the node advertised at self, serving
// whatever shards of m list that address. onRetire may be nil (nodes that
// never drain, e.g. tests).
func NewAuthority(m *Map, self string, onRetire func(lost []uint32, next *Map) error) (*Authority, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := &Authority{self: self, onRetire: onRetire}
	a.state.Store(a.buildState(m.Clone(), m.Encode()))
	return a, nil
}

// Current returns the installed map. Callers must not mutate it.
func (a *Authority) Current() *Map { return a.state.Load().tab.Map() }

// MapFor returns the encoded map, or nil when the caller's epoch is
// already current (the KindMapGet fast path).
func (a *Authority) MapFor(haveEpoch uint64) []byte {
	st := a.state.Load()
	if st.tab.Map().Epoch == haveEpoch {
		return nil
	}
	return st.payload
}

// Install decodes and installs a pushed map (KindMapSet). The new epoch
// must advance; re-pushing the identical current map is an idempotent
// no-op so coordinator retries are safe. The state swap happens before the
// retire hook runs: from the swap on, every operation for a lost shard
// answers Moved, and only then does the drain wait for the new owners to
// catch up — the cutover ordering that makes acknowledged writes safe.
// Returns the encoded installed map.
func (a *Authority) Install(payload []byte) ([]byte, error) {
	m, err := Decode(payload)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.state.Load()
	curEpoch := cur.tab.Map().Epoch
	if m.Epoch < curEpoch {
		return nil, fmt.Errorf("shard: install of epoch %d behind current %d", m.Epoch, curEpoch)
	}
	if m.Epoch == curEpoch {
		if bytes.Equal(payload, cur.payload) {
			return cur.payload, nil
		}
		return nil, fmt.Errorf("shard: conflicting install at epoch %d", m.Epoch)
	}
	next := a.buildState(m, append([]byte(nil), payload...))
	a.state.Store(next)
	var lost []uint32
	for i, sl := range cur.slots {
		if id := cur.tab.Map().Shards[i].ID; sl.serves && !next.servesID(id) {
			lost = append(lost, id)
		}
	}
	if len(lost) > 0 && a.onRetire != nil {
		if err := a.onRetire(lost, m); err != nil {
			return nil, fmt.Errorf("shard: draining retired shards %v: %w", lost, err)
		}
	}
	return next.payload, nil
}

// CheckAttach verifies an attach-time shard claim: nil when this node
// serves the claimed shard, a Moved naming the current owner otherwise.
func (a *Authority) CheckAttach(claim wire.AttachClaim) *wire.Moved {
	st := a.state.Load()
	if st.servesID(claim.Shard) {
		return nil
	}
	return st.movedTo(claim.Shard)
}

// MovedPath decides a path-carrying operation: nil to serve (counting it
// against the shard), a Moved when the path's shard lives elsewhere. The
// root and the scaffolding directories above served prefixes are shared
// namespace — every serving node answers for them (the router's root
// listings merge across shards, and subtree ancestors live on the subtree
// owner's volume), so they are never fenced while the node serves anything.
//
// The decision reads one generation and takes no lock. A path is proved
// canonical once; only one that is not pays for path.Clean.
func (a *Authority) MovedPath(p string) *wire.Moved {
	st := a.state.Load()
	resolved, routed := p, p
	if !canonical(p) {
		resolved, routed = resolvedForm(p), routedForm(p)
	}
	if st.servesAny && (resolved == "/" || st.scaffold[resolved]) {
		return nil
	}
	m := st.tab.Map()
	slot := st.tab.slot(routed)
	if slot < 0 {
		return &wire.Moved{Shard: NoShard, Epoch: m.Epoch}
	}
	if sl := &st.slots[slot]; sl.serves {
		sl.ops.Add(1)
		return nil
	}
	sh := &m.Shards[slot]
	return &wire.Moved{Shard: sh.ID, Epoch: m.Epoch, Addr: sh.Addrs[0]}
}

// MovedShard decides a descriptor operation, which carries no path: the
// session's attach-time shard claim stands in for routing. Unclaimed
// sessions (plain clients on a sharded node) are only fenced once the node
// serves nothing at all — a fully retired group must not quietly keep
// serving old descriptors.
func (a *Authority) MovedShard(shard uint32, claimed bool) *wire.Moved {
	st := a.state.Load()
	if !claimed {
		if st.servesAny {
			return nil
		}
		return &wire.Moved{Shard: NoShard, Epoch: st.tab.Map().Epoch}
	}
	if slot, ok := st.byID[shard]; ok && st.slots[slot].serves {
		st.slots[slot].ops.Add(1)
		return nil
	}
	return st.movedTo(shard)
}

// movedTo builds the Moved answer for a shard under this state.
func (st *authState) movedTo(id uint32) *wire.Moved {
	m := st.tab.Map()
	mv := &wire.Moved{Shard: id, Epoch: m.Epoch}
	if slot, ok := st.byID[id]; ok {
		mv.Addr = m.Shards[slot].Addrs[0]
	}
	return mv
}

// WriteMetrics appends the simurgh_shard_* series to a /metrics scrape.
func (a *Authority) WriteMetrics(w io.Writer) {
	epoch, rows := a.Rows()
	serving := 0
	for _, r := range rows {
		if r.Served {
			serving++
		}
	}
	export.WriteScalar(w, "simurgh_shard_epoch", "gauge", "Installed shard map epoch.", epoch)
	export.WriteScalar(w, "simurgh_shard_serving", "gauge", "Shards this node serves.", uint64(serving))
	export.WriteHeader(w, "simurgh_shard_ops_total", "counter", "Operations served, by shard.")
	for _, r := range rows {
		if r.Served {
			fmt.Fprintf(w, "simurgh_shard_ops_total{shard=\"%d\"} %d\n", r.ID, r.Ops)
		}
	}
}

// Row is one shard of the installed map as this node sees it: a row of
// the shard table in the cluster health document (/cluster.json).
type Row struct {
	ID     uint32   `json:"id"`
	Prefix string   `json:"prefix"`
	State  string   `json:"state"`
	Served bool     `json:"served"`
	Ops    uint64   `json:"ops"` // operations served here
	Addrs  []string `json:"addrs"`
}

// Rows returns the installed map's epoch and one Row per shard, read
// from one generation.
func (a *Authority) Rows() (epoch uint64, rows []Row) {
	st := a.state.Load()
	m := st.tab.Map()
	for i := range m.Shards {
		sh := &m.Shards[i]
		rows = append(rows, Row{ID: sh.ID, Prefix: sh.Prefix, State: sh.State.String(),
			Served: st.slots[i].serves, Ops: st.slots[i].ops.Load(), Addrs: append([]string(nil), sh.Addrs...)})
	}
	return m.Epoch, rows
}
