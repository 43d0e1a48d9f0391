package client

import (
	"errors"
	"fmt"
	"io"
	pathpkg "path"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
)

const (
	// maxMovedHops bounds how many Moved answers one operation follows
	// (refetch map, rehome, retry) before giving up. A bound matters: two
	// nodes with conflicting stale maps could otherwise bounce a client
	// between them forever.
	maxMovedHops = 8
	// movedBackoffStart is the first retry's backoff after a Moved answer
	// (jittered, doubling, capped at 250ms). During a migration cutover the
	// new owner may be moments away from promotion; backing off beats
	// hammering.
	movedBackoffStart = 5 * time.Millisecond
	// fetchTimeout bounds one map fetch.
	fetchTimeout = 5 * time.Second
)

// RouterOptions tunes a Router. The embedded Options apply to every
// per-shard Remote the router dials.
type RouterOptions struct{ Options }

func (o *RouterOptions) fillDefaults() {
	// Router sessions must survive a Rehome miss (the new owner may not be
	// promoted yet), so failover is always on, even for one-node groups.
	if o.FailoverTimeout <= 0 {
		o.FailoverTimeout = 10 * time.Second
	}
}

// RouterStats is a point-in-time snapshot of a Router's counters.
type RouterStats struct {
	// Epoch is the cached shard map's epoch.
	Epoch uint64
	// Shards is the number of shards in the cached map.
	Shards int
	// Moves counts Moved answers followed (map refetch + session rehome).
	Moves uint64
	// MapRefreshes counts cached-map replacements by a newer epoch.
	MapRefreshes uint64
	// CrossRenames counts renames executed as cross-shard copy+unlink.
	CrossRenames uint64
}

// Router is a sharded volume: it caches the shard map, keeps one Remote per
// shard, and routes every operation by path to the shard's owner group. It
// implements fsapi.FileSystem, so everything written against the flat client
// (fstest, the benchmarks, the shell) runs unchanged against a sharded
// deployment.
//
// Staleness is handled, not prevented: the router acts on its cached map
// and treats a Moved answer as the signal to refetch (from the seeds and
// every address the cached map names), re-point the shard's Remote, rehome
// its session, and retry — bounded by maxMovedHops with jittered backoff.
// The server-side fence guarantees a Moved operation was not executed, so
// the retry is exactly-once safe.
type Router struct {
	seeds []string
	opts  RouterOptions

	// tab is the cached map, compiled for routing. Requests read it with one
	// load and no lock; an install builds the next epoch's table whole and
	// swaps the pointer, so a reader sees one epoch or the other, never a
	// mixture.
	tab atomic.Pointer[shard.Table]

	mu      sync.Mutex // guards remotes and closed; serializes installs
	remotes map[uint32]*Remote
	closed  bool

	// fixed marks a Remote's own one-shard table (see Remote.router). Its
	// one shard is whatever the Remote's nodes serve, not a shard of any map
	// a node could hand out, so the table is never refreshed and its Remote
	// is never re-pointed or claimed: a Moved answer is the caller's.
	fixed bool

	moves        atomic.Uint64
	refreshes    atomic.Uint64
	crossRenames atomic.Uint64
}

// DialRouter fetches the shard map from the first reachable seed (a
// host:port or comma-separated list of them — typically one node of any
// group) and prepares a Router over it. Like Dial, the owner groups are
// first contacted at Attach.
func DialRouter(seeds string, opts RouterOptions) (*Router, error) {
	opts.fillDefaults()
	list := splitAddrs(seeds)
	if len(list) == 0 {
		return nil, errors.New("wire client: no router seed addresses")
	}
	m, err := shard.FetchMapAny(list, fetchTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire client: fetching shard map: %w", err)
	}
	return newRouter(m, list, opts), nil
}

func newRouter(m *shard.Map, seeds []string, opts RouterOptions) *Router {
	rt := &Router{seeds: seeds, opts: opts, remotes: make(map[uint32]*Remote)}
	rt.tab.Store(shard.Compile(m))
	return rt
}

// NewRouter builds a Router over an already-fetched map (tools that load a
// map file, tests). seeds may be empty; refreshes then only ask the map's
// own addresses.
func NewRouter(m *shard.Map, seeds []string, opts RouterOptions) (*Router, error) {
	opts.fillDefaults()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return newRouter(m.Clone(), append([]string(nil), seeds...), opts), nil
}

// Name identifies the sharded volume.
func (rt *Router) Name() string {
	m := rt.Map()
	return fmt.Sprintf("sharded(%d shards, epoch %d)", len(m.Shards), m.Epoch)
}

// Map returns the cached shard map. Callers must not mutate it.
func (rt *Router) Map() *shard.Map { return rt.tab.Load().Map() }

// Stats snapshots the router's counters.
func (rt *Router) Stats() RouterStats {
	m := rt.Map()
	return RouterStats{
		Epoch:        m.Epoch,
		Shards:       len(m.Shards),
		Moves:        rt.moves.Load(),
		MapRefreshes: rt.refreshes.Load(),
		CrossRenames: rt.crossRenames.Load(),
	}
}

// Attach opens a session over the shard map. Its links attach lazily, the
// first time an operation routes to their shard.
func (rt *Router) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return rt.newSession(cred), nil
}

// Close drops every per-shard Remote. Attached sessions fail on their next
// operation.
func (rt *Router) Close() error {
	rt.mu.Lock()
	rt.closed = true
	rt.remotes = nil
	rt.mu.Unlock()
	return nil
}

// remote returns (dialing if needed) the Remote for a shard, plus the
// shard's prefix under the cached map. A Remote the router dials claims its
// shard at the map's epoch (install re-claims it when the epoch moves); a
// Remote's own one-shard table holds that Remote, unclaimed.
func (rt *Router) remote(id uint32) (*Remote, string, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, "", ErrClosed
	}
	m := rt.Map()
	sh := m.ByID(id)
	if sh == nil {
		return nil, "", fmt.Errorf("wire client: shard %d not in map epoch %d", id, m.Epoch)
	}
	r := rt.remotes[id]
	if r == nil {
		var err error
		r, err = Dial(strings.Join(sh.Addrs, ","), rt.opts.Options)
		if err != nil {
			return nil, "", err
		}
		r.setClaim(id, m.Epoch)
		rt.remotes[id] = r
	}
	return r, sh.Prefix, nil
}

// refresh fetches the shard map from first (when non-empty), then the seeds,
// then every address the cached map names, installing the first strictly
// newer epoch found. It reports whether the map advanced. A Moved refusal
// names the authoritative owner as first: asking it directly beats the
// seeds, which mid-migration may still answer with the transitional epoch
// that points at the fenced old group. Affected Remotes are re-pointed
// (setAddrs) and re-claimed; live sessions rehome on their own retry path.
func (rt *Router) refresh(first string) bool {
	cur := rt.Map()
	var targets []string
	seen := make(map[string]bool)
	add := func(a string) {
		if a != "" && !seen[a] {
			seen[a] = true
			targets = append(targets, a)
		}
	}
	add(first)
	for _, a := range rt.seeds {
		add(a)
	}
	for i := range cur.Shards {
		for _, a := range cur.Shards[i].Addrs {
			add(a)
		}
	}
	for _, addr := range targets {
		m, err := shard.FetchMap(addr, cur.Epoch, fetchTimeout)
		if err != nil || m == nil || m.Epoch <= cur.Epoch {
			continue
		}
		rt.install(m)
		return true
	}
	return false
}

// install replaces the cached map when epoch advances and re-points every
// existing Remote at its shard's (possibly new) owner group.
func (rt *Router) install(m *shard.Map) {
	type upd struct {
		r     *Remote
		id    uint32
		addrs []string
	}
	tab := shard.Compile(m) // whole, before any request can see it
	rt.mu.Lock()
	if m.Epoch <= rt.Map().Epoch {
		rt.mu.Unlock()
		return
	}
	rt.tab.Store(tab)
	var ups []upd
	for id, r := range rt.remotes {
		if sh := m.ByID(id); sh != nil {
			ups = append(ups, upd{r: r, id: id, addrs: append([]string(nil), sh.Addrs...)})
		}
	}
	rt.mu.Unlock()
	rt.refreshes.Add(1)
	for _, u := range ups {
		u.r.setAddrs(u.addrs)
		u.r.setClaim(u.id, m.Epoch)
	}
}

// shardLink returns (attaching if needed) the session's link to a shard.
func (s *Session) shardLink(id uint32) (*link, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	l := s.links[id]
	s.mu.Unlock()
	if l != nil {
		return l, nil
	}
	r, prefix, err := s.rt.remote(id)
	if err != nil {
		return nil, err
	}
	if l, err = s.attach(r); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Detach()
		return nil, ErrClosed
	}
	if exist := s.links[id]; exist != nil {
		s.mu.Unlock()
		l.Detach()
		return exist, nil
	}
	s.links[id] = l
	s.mu.Unlock()
	ensureAncestors(l, prefix)
	return l, nil
}

// attach opens a link on r, giving the first attach the same
// failover grace an established session gets from its recovery loop: a
// transient refusal (a primary mid-promotion, an op gate held for a join
// snapshot) is retried with jittered doubling backoff until
// FailoverTimeout, instead of surfacing a raw dial or deadline error the
// first time a worker touches the shard. A Moved answer returns
// immediately so doShard can refetch the map and re-route.
func (s *Session) attach(r *Remote) (*link, error) {
	deadline := time.Now().Add(s.rt.opts.FailoverTimeout)
	b := backoff{d: 10 * time.Millisecond, max: 250 * time.Millisecond}
	for {
		l, err := r.attach(s.cred)
		if err == nil {
			return l, nil
		}
		if errors.Is(err, wire.ErrMoved) {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w (after %v)", ErrNoPrimary, err)
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, ErrClosed
		}
		time.Sleep(b.next())
	}
}

// ensureAncestors provisions the scaffolding directories above a prefix
// shard's subtree root on the shard's own volume, so paths under a deep
// prefix like "/warm/deep" resolve on a fresh group. The subtree root
// itself is NOT created: it is a real directory the user must mkdir (the
// mkdir routes here), and until then it does not exist — Stat answers
// ErrNotExist and the parent's merged listing omits it, exactly like an
// unmade directory on a single node. Best-effort: ErrExist is the steady
// state, and a permission failure just surfaces later as the underlying
// operation's own error.
func ensureAncestors(l *link, prefix string) {
	if prefix == "" || prefix == "/" {
		return
	}
	comps, err := fsapi.SplitPath(prefix)
	if err != nil {
		return
	}
	p := ""
	for _, c := range comps[:len(comps)-1] {
		p += "/" + c
		l.callDst(wire.Request{Op: wire.OpMkdir, Path: p, Perm: 0o755}, nil)
	}
}

// dropLink forgets a link that failed to rehome, but only while the
// open-file table holds no descriptor on its shard: a fresh attach gets a
// fresh server-side session, which would orphan them.
func (s *Session) dropLink(id uint32, l *link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, of := range s.files {
		if of.shard == id {
			return
		}
	}
	if s.links[id] == l {
		delete(s.links, id)
	}
}

// moved reacts to a Moved answer for a shard: refresh the map, then rehome
// the shard's link against its Remote's (possibly re-pointed) dial list.
// The same server-side session resumes under the same client ID, so open
// descriptors and the replay of unanswered calls survive the move. It
// reports whether a retry can be routed anew; a fixed table has no map to
// refresh, so there the Moved goes back to the caller and the link, with
// its descriptors, stays as it is.
//
// A migration announces its map in stages, so a refresh racing the cutover
// can install the transitional epoch — one that still points this shard at
// the old, now-fenced group. The rehome's attach then bounces with a Moved
// that names the real owner; fetching the map from that owner re-points
// the Remote, and the recovery loop the failed rehome left running picks
// up the new dial list on its next tick. Only when even the named owner
// yields no newer map is the link abandoned.
func (s *Session) moved(id uint32, cause error) bool {
	if s.rt.fixed {
		return false
	}
	s.rt.moves.Add(1)
	var mv *movedErr
	if errors.As(cause, &mv) {
		// An attach-time refusal names the owner and epoch: wait for the
		// cutover's map instead of settling for a transitional one.
		s.awaitEpoch(mv.mv)
	} else {
		s.rt.refresh("")
	}
	s.mu.Lock()
	l := s.links[id]
	s.mu.Unlock()
	if l == nil {
		return true
	}
	if err := l.rehome(); err != nil {
		var mv *movedErr
		if errors.As(err, &mv) && s.awaitEpoch(mv.mv) {
			return true
		}
		s.dropLink(id, l)
	}
	return true
}

// awaitEpoch waits for the shard map to reach the epoch a refused attach
// named, polling the named owner first and the seeds as fallback. The
// refusing node installs the cutover map before the new owner learns it
// (the old group's install is the migration's drain barrier), so right at
// the fence there may be nothing newer to fetch from anywhere — only
// moments later. The failed rehome left the session's recovery loop
// running; installing the newer map re-points the Remote, and that loop
// attaches to the new owner on its next tick. Polling shares the failover
// budget the recovery loop itself runs under.
func (s *Session) awaitEpoch(mv wire.Moved) bool {
	deadline := time.Now().Add(s.rt.opts.FailoverTimeout)
	b := s.movedBackoff()
	for {
		if s.rt.Map().Epoch >= mv.Epoch {
			return true
		}
		if s.rt.refresh(mv.Addr) {
			continue
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(b.next())
	}
}

// movedBackoff is the delay between retries after a Moved answer.
func (s *Session) movedBackoff() backoff {
	return backoff{d: movedBackoffStart, max: 250 * time.Millisecond}
}

// Rename moves old to new. Within one shard it is the server's atomic
// rename; across shards it degrades to a two-phase copy+unlink (directories
// recurse, symlinks re-link) — not atomic, but the only option when the two
// names live in different groups' NVMM.
func (s *Session) Rename(oldPath, newPath string) error {
	_, err := s.do(wire.Request{Op: wire.OpRename, Path: oldPath, Path2: newPath})
	if err == errCrossShard {
		return s.crossRename(oldPath, newPath)
	}
	return err
}

// crossRename implements rename across shard boundaries: copy to the
// destination shard, then unlink the source. Each sub-operation is itself
// routed (and Moved-retried) through the session.
func (s *Session) crossRename(oldPath, newPath string) error {
	s.rt.crossRenames.Add(1)
	st, err := s.Lstat(oldPath)
	if err != nil {
		return err
	}
	switch st.Mode & fsapi.ModeTypeMask {
	case fsapi.ModeDir:
		if tst, terr := s.Lstat(newPath); terr == nil {
			if !fsapi.IsDir(tst.Mode) {
				return fsapi.ErrNotDir
			}
		} else if !errors.Is(terr, fsapi.ErrNotExist) {
			return terr
		}
		if err := s.Mkdir(newPath, st.Mode&fsapi.ModePermMask); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return err
		}
		ents, err := s.ReadDir(oldPath)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := s.Rename(oldPath+"/"+e.Name, newPath+"/"+e.Name); err != nil {
				return err
			}
		}
		return s.Rmdir(oldPath)
	case fsapi.ModeSymlink:
		target, err := s.Readlink(oldPath)
		if err != nil {
			return err
		}
		if err := s.Unlink(newPath); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			return err
		}
		if err := s.Symlink(target, newPath); err != nil {
			return err
		}
		return s.Unlink(oldPath)
	default:
		return s.crossCopyFile(oldPath, newPath, st)
	}
}

// crossCopyFile moves one regular file across shards: replace the target
// name (rename(2) replaces the name, never writes through a symlink), copy
// the bytes in bounded chunks, carry times over, then unlink the source.
func (s *Session) crossCopyFile(oldPath, newPath string, st fsapi.Stat) error {
	src, err := s.Open(oldPath, fsapi.ORdonly, 0)
	if err != nil {
		return err
	}
	defer s.Close(src)
	if tst, terr := s.Lstat(newPath); terr == nil {
		if fsapi.IsDir(tst.Mode) {
			return fsapi.ErrIsDir
		}
		if err := s.Unlink(newPath); err != nil {
			return err
		}
	} else if !errors.Is(terr, fsapi.ErrNotExist) {
		return terr
	}
	dst, err := s.Create(newPath, st.Mode&fsapi.ModePermMask)
	if err != nil {
		return err
	}
	buf := make([]byte, 256<<10)
	var off uint64
	for {
		n, rerr := s.Pread(src, buf, off)
		if n > 0 {
			if _, werr := s.Pwrite(dst, buf[:n], off); werr != nil {
				s.Close(dst)
				return werr
			}
			off += uint64(n)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			s.Close(dst)
			return rerr
		}
		if n == 0 {
			break
		}
	}
	if err := s.Close(dst); err != nil {
		return err
	}
	s.Utimes(newPath, st.Atime, st.Mtime) // best-effort, like cp -p
	return s.Unlink(oldPath)
}

// Link creates a hard link. Hard links cannot span shards — the two names
// would live in different groups' NVMM with no shared inode — so a
// cross-shard link answers ErrCrossDir, like link(2) across mounts answers
// EXDEV. Like Rename's, the check is made on every hop.
func (s *Session) Link(oldPath, newPath string) error {
	_, err := s.do(wire.Request{Op: wire.OpLink, Path: oldPath, Path2: newPath})
	if err == errCrossShard {
		return fsapi.ErrCrossDir
	}
	return err
}

// ReadDir lists a directory, merging what other shards contribute to it: at
// the root, every hash shard's (and the "/" shard's) own root entries; at
// any directory, the subtree roots of prefix shards mounted directly under
// it (included only once they exist on their owner). Entries are
// deduplicated by name; merged listings are sorted.
func (s *Session) ReadDir(path string) ([]fsapi.DirEntry, error) {
	resp, ownerID, err := s.doShard(wire.Request{Op: wire.OpReadDir, Path: path}, anyShard, nil)
	if err != nil {
		return nil, err
	}
	ents := resp.Dir
	m := s.rt.Map()
	if len(m.Shards) == 1 {
		return ents, nil
	}
	clean := cleanRooted(path)
	seen := make(map[string]bool, len(ents))
	for _, e := range ents {
		seen[e.Name] = true
	}
	merged := false
	if clean == "/" {
		for i := range m.Shards {
			sh := &m.Shards[i]
			if sh.ID == ownerID || (sh.Prefix != "" && sh.Prefix != "/") {
				continue
			}
			more, _, err := s.doShard(wire.Request{Op: wire.OpReadDir, Path: "/"}, int64(sh.ID), nil)
			if err != nil {
				return nil, err
			}
			for _, e := range more.Dir {
				if !seen[e.Name] {
					seen[e.Name] = true
					ents = append(ents, e)
					merged = true
				}
			}
		}
	}
	for i := range m.Shards {
		sh := &m.Shards[i]
		if sh.ID == ownerID || sh.Prefix == "" || sh.Prefix == "/" || pathpkg.Dir(sh.Prefix) != clean {
			continue
		}
		name := pathpkg.Base(sh.Prefix)
		if seen[name] {
			continue
		}
		st, err := s.Stat(sh.Prefix)
		if errors.Is(err, fsapi.ErrNotExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		seen[name] = true
		ents = append(ents, fsapi.DirEntry{Name: name, Ino: st.Ino, Mode: st.Mode})
		merged = true
	}
	if merged {
		sort.Slice(ents, func(i, j int) bool { return ents[i].Name < ents[j].Name })
	}
	return ents, nil
}

// part is one shard's share of a batch.
type part struct {
	shard uint32
	link  *link   // the shard's link when it was already attached
	idx   []int32 // positions in the caller's batch
	reqs  []wire.Request
	sub   submission
	// answered is whether every response of the part has landed.
	answered bool
}

// scatter is the reusable working set of one Submit: a part per shard the
// batch touches. parts[:n] are in use; the rest keep their buffers.
type scatter struct {
	parts []*part
	n     int
}

// part returns the in-use part for a shard, adding one when the batch has
// not touched the shard yet. Caller holds s.mu.
func (sc *scatter) part(s *Session, shard uint32) *part {
	for _, p := range sc.parts[:sc.n] {
		if p.shard == shard {
			return p
		}
	}
	if sc.n == len(sc.parts) {
		sc.parts = append(sc.parts, new(part))
	}
	p := sc.parts[sc.n]
	sc.n++
	p.shard, p.link, p.answered = shard, s.links[shard], false
	p.idx, p.reqs = p.idx[:0], p.reqs[:0]
	return p
}

// Submit sends reqs as one explicit batch per shard and returns the
// responses in request order. It is the deterministic-batch interface for
// benchmarks; the fsapi methods go one request at a time and rely on the
// links' writer coalescing instead. The batch is split by shard, every part
// is started, then every part is waited for: the parts overlap on the wire
// without a goroutine each, because a link's submission is started
// (registered and queued for its writer) and waited for in two steps. A
// batch that touches one shard is the same code with one part.
//
// Requests are routed as doShard routes them, and descriptors are the
// session's: a request on a descriptor the open-file table does not hold is
// answered CodeBadFD here, and the creates, opens and closes a batch makes
// enter and leave the table as the fsapi methods' do. Positions are that
// table's: a batch addresses file data with OpPread and OpPwrite (OpWrite
// on a descriptor opened O_APPEND), and a server answers the retired
// OpRead, OpSeek and OpFsync with ErrInval. Unlike the single-call path,
// Submit does not retry Moved answers: they come back as CodeMoved
// responses for the caller.
//
// The responses are the caller's for good. The Data of the pread responses
// one shard answered may be views of one shared backing array — the reply
// frame they arrived in — so keeping a single Data alive keeps up to a whole
// frame (at most wire.MaxFrame) reachable; copy it out to hold on to less.
func (s *Session) Submit(reqs []wire.Request) ([]wire.Response, error) {
	out := make([]wire.Response, len(reqs))
	tab := s.rt.tab.Load() // one epoch routes the whole batch
	sc := s.idle.Swap(nil)
	if sc == nil {
		sc = new(scatter)
	}
	sc.n = 0
	s.mu.Lock() // one hold for the whole translation loop, not per request
	for i := range reqs {
		req := reqs[i] // copy: the FD field may be rewritten
		id, ok := s.route(tab, &req)
		if !ok {
			out[i] = wire.Response{ID: req.ID, Op: req.Op, Code: wire.CodeOf(fsapi.ErrBadFD)}
			continue
		}
		p := sc.part(s, id)
		p.idx = append(p.idx, int32(i))
		p.reqs = append(p.reqs, req)
	}
	s.mu.Unlock()
	var err error
	for _, p := range sc.parts[:sc.n] {
		perr := s.startPart(p, out)
		p.answered = perr == nil
		err = joinShardErr(err, p.shard, perr)
	}
	for _, p := range sc.parts[:sc.n] {
		if p.answered {
			perr := p.sub.wait()
			p.answered = perr == nil
			err = joinShardErr(err, p.shard, perr)
		}
	}
	// Every part answered in full enters the table, even when another
	// part's shard failed: its creates and closes happened.
	var terr error
	for _, p := range sc.parts[:sc.n] {
		for _, i := range p.idx {
			if p.answered && terr == nil {
				terr = s.track(p.shard, &reqs[i], &out[i])
			}
		}
		clear(p.reqs) // the requests point at the caller's paths and data
	}
	s.idle.Store(sc)
	if err = errors.Join(err, terr); err != nil {
		return nil, err
	}
	return out, nil
}

// startPart attaches the part's link if need be and starts the part's
// submission on it.
func (s *Session) startPart(p *part, out []wire.Response) error {
	l := p.link
	if l == nil {
		var err error
		if l, err = s.shardLink(p.shard); err != nil {
			return err
		}
	}
	return l.start(&p.sub, p.reqs, out, p.idx, nil)
}

// joinShardErr adds a shard's failure to a batch's error.
func joinShardErr(err error, shard uint32, perr error) error {
	if perr == nil {
		return err
	}
	return errors.Join(err, fmt.Errorf("shard %d: %w", shard, perr))
}

// Detach releases every link (each server closes its session's
// descriptors) and empties the open-file table.
func (s *Session) Detach() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	links := s.links
	s.links, s.files = nil, nil
	s.mu.Unlock()
	var errs []error
	for id, l := range links {
		if err := l.Detach(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", id, err))
		}
	}
	return errors.Join(errs...)
}

// cleanRooted canonicalizes a path to its cleaned, rooted form.
func cleanRooted(p string) string {
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return pathpkg.Clean(p)
}
