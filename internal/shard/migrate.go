package shard

import (
	"fmt"
	"time"
)

// MigrateOptions parameterizes a migration.
type MigrateOptions struct {
	// Timeout bounds each control RPC (the push to the retiring owner
	// includes its drain). Default 30s.
	Timeout time.Duration
	// Logf receives step-by-step progress. Default: discard.
	Logf func(format string, args ...any)
}

// Migrate moves shard shardID to the replica group at target, live. The
// precondition is that the target nodes are already running and have joined
// the shard's current owner group as replication backups (simurghd -join):
// the snapshot stream and log replay have been carrying the shard's whole
// volume to them since, so by cutover time the handoff is an epoch flip and
// a drain, not a data copy.
//
// The cutover ordering is what makes it safe:
//
//  1. Epoch+1 marks the shard Migrating everywhere (visibility only — the
//     old group still serves; failures here are logged, not fatal).
//  2. Epoch+2, with the target as owner, goes to the OLD group first. The
//     moment each old node installs it, its authority fences the shard —
//     every new operation answers Moved and is never logged — and the old
//     primary then waits until the target links have acknowledged the whole
//     log (the retire drain).
//     Its MapOK reply is therefore the barrier: every write ever
//     acknowledged to a client is on the target when it arrives.
//  3. The same map goes to the target group, so its nodes start claiming
//     the shard, and the target's first node is promoted to primary (epoch
//     bump; its link to the old primary drops). Clients that hit the fence
//     retry with jittered backoff and rehome to the target by client-ID
//     session resume — descriptor tables included: the target's join
//     manifest carried them, and the log every open since.
//  4. Remaining nodes get the map best-effort (they would learn it from
//     Moved answers anyway).
//
// Between steps 2 and 3 the shard is briefly unavailable for writes (the
// old group answers Moved, the target is not yet primary); the router's
// bounded retries cover the gap. No acknowledged write is lost at any
// point: an operation either entered the old log before the fence (the
// drain covers it) or was answered Moved and never acknowledged.
//
// Returns the installed map.
func Migrate(seeds []string, shardID uint32, target []string, opt MigrateOptions) (*Map, error) {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("shard: migrate needs a target address")
	}
	cur, err := FetchMapAny(seeds, opt.Timeout)
	if err != nil {
		return nil, err
	}
	sh := cur.ByID(shardID)
	if sh == nil {
		return nil, fmt.Errorf("shard: no shard %d in map epoch %d", shardID, cur.Epoch)
	}
	if sameAddrs(sh.Addrs, target) {
		logf("shard %d already at %v (epoch %d); nothing to do", shardID, target, cur.Epoch)
		return cur, nil
	}
	oldAddrs := append([]string(nil), sh.Addrs...)
	others := otherNodes(cur, shardID, target)

	// Step 1: announce the migration (visibility; best-effort).
	m1 := cur.Clone()
	m1.Epoch++
	m1.ByID(shardID).State = StateMigrating
	p1 := m1.Encode()
	for _, addr := range allNodes(cur, target) {
		if err := PushMap(addr, p1, opt.Timeout); err != nil {
			logf("migrate: announcing to %s: %v", addr, err)
		}
	}
	logf("shard %d: migration %v -> %v announced at epoch %d", shardID, oldAddrs, target, m1.Epoch)

	// Step 2: fence and drain the old owners. The push to each old node
	// returns only after it has stopped serving the shard, and — on the
	// primary — after the target has acknowledged every log entry.
	m2 := cur.Clone()
	m2.Epoch += 2
	nsh := m2.ByID(shardID)
	nsh.Addrs = append([]string(nil), target...)
	nsh.State = StateServing
	p2 := m2.Encode()
	for _, addr := range oldAddrs {
		if err := PushMap(addr, p2, opt.Timeout); err != nil {
			return nil, fmt.Errorf("shard: fencing old owner: %w", err)
		}
		logf("shard %d: old owner %s fenced and drained", shardID, addr)
	}

	// Step 3: hand the shard to the target and promote its first node.
	for _, addr := range target {
		if err := PushMap(addr, p2, opt.Timeout); err != nil {
			return nil, fmt.Errorf("shard: installing map on target: %w", err)
		}
	}
	epoch, err := PromoteNode(target[0], opt.Timeout)
	if err != nil {
		return nil, fmt.Errorf("shard: promoting target: %w", err)
	}
	logf("shard %d: %s promoted to primary (replication epoch %d, map epoch %d)",
		shardID, target[0], epoch, m2.Epoch)

	// Step 4: everyone else, best-effort.
	for _, addr := range others {
		if err := PushMap(addr, p2, opt.Timeout); err != nil {
			logf("migrate: updating %s: %v", addr, err)
		}
	}
	return m2, nil
}

// sameAddrs reports set equality of two address lists.
func sameAddrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	set := make(map[string]bool, len(a))
	for _, x := range a {
		set[x] = true
	}
	for _, x := range b {
		if !set[x] {
			return false
		}
	}
	return true
}

// allNodes lists every address in the map plus extras, deduplicated.
func allNodes(m *Map, extra []string) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a string) {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	for i := range m.Shards {
		for _, a := range m.Shards[i].Addrs {
			add(a)
		}
	}
	for _, a := range extra {
		add(a)
	}
	return out
}

// otherNodes lists map addresses outside the moving shard's old and new
// owner groups.
func otherNodes(m *Map, shardID uint32, target []string) []string {
	skip := make(map[string]bool)
	if sh := m.ByID(shardID); sh != nil {
		for _, a := range sh.Addrs {
			skip[a] = true
		}
	}
	for _, a := range target {
		skip[a] = true
	}
	var out []string
	seen := make(map[string]bool)
	for i := range m.Shards {
		for _, a := range m.Shards[i].Addrs {
			if !skip[a] && !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
	}
	return out
}
