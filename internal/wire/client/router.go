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

// Attach opens a routed session. Per-shard wire sessions attach lazily, the
// first time an operation routes to the shard.
func (rt *Router) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	rt.mu.Lock()
	closed := rt.closed
	rt.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	return &RoutedSession{
		rt:       rt,
		cred:     cred,
		sessions: make(map[uint32]*Session),
		fds:      make(map[fsapi.FD]routedFD),
		nextFD:   1,
	}, nil
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

// route resolves a path to its owning shard ID under the cached map.
func (rt *Router) route(p string) uint32 {
	return rt.tab.Load().Route(p).ID // Validate guarantees coverage
}

// remote returns (dialing if needed) the Remote for a shard, plus the
// shard's prefix under the cached map.
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
		rt.remotes[id] = r
	}
	r.setClaim(id, m.Epoch)
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

// routedFD maps a router-level virtual descriptor to the shard session
// holding the real one. Virtual descriptors are monotonic and never reused,
// so a stale descriptor can never alias a new file.
type routedFD struct {
	shard uint32
	fd    fsapi.FD
}

// RoutedSession is one attached process's view of the sharded volume: a lazy
// per-shard wire session plus a table naming, for each descriptor it handed
// out, the shard session that holds the real one. That is all it keeps: how a
// descriptor was opened and where it stands are in that session's open-file
// table. It implements fsapi.Client and is safe for concurrent use.
type RoutedSession struct {
	rt   *Router
	cred fsapi.Cred

	mu       sync.Mutex
	sessions map[uint32]*Session
	fds      map[fsapi.FD]routedFD
	nextFD   fsapi.FD
	closed   bool

	// idle is Submit's working set between calls. A Submit takes it and puts
	// it back; one that finds it taken makes its own.
	idle atomic.Pointer[scatter]
}

// session returns (attaching if needed) the wire session for a shard.
func (ss *RoutedSession) session(id uint32) (*Session, error) {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil, ErrClosed
	}
	s := ss.sessions[id]
	ss.mu.Unlock()
	if s != nil {
		return s, nil
	}
	r, prefix, err := ss.rt.remote(id)
	if err != nil {
		return nil, err
	}
	sess, err := ss.attach(r)
	if err != nil {
		return nil, err
	}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		sess.Detach()
		return nil, ErrClosed
	}
	if exist := ss.sessions[id]; exist != nil {
		ss.mu.Unlock()
		sess.Detach()
		return exist, nil
	}
	ss.sessions[id] = sess
	ss.mu.Unlock()
	ss.ensureAncestors(sess, prefix)
	return sess, nil
}

// attach opens a wire session on r, giving the first attach the same
// failover grace an established session gets from its recovery loop: a
// transient refusal (a primary mid-promotion, an op gate held for a join
// snapshot) is retried with jittered doubling backoff until
// FailoverTimeout, instead of surfacing a raw dial or deadline error the
// first time a worker touches the shard. A Moved answer returns
// immediately so doShard can refetch the map and re-route.
func (ss *RoutedSession) attach(r *Remote) (*Session, error) {
	deadline := time.Now().Add(ss.rt.opts.FailoverTimeout)
	b := backoff{d: 10 * time.Millisecond, max: 250 * time.Millisecond}
	for {
		c, err := r.Attach(ss.cred)
		if err == nil {
			return c.(*Session), nil
		}
		if errors.Is(err, wire.ErrMoved) {
			return nil, err
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w (after %v)", ErrNoPrimary, err)
		}
		ss.mu.Lock()
		closed := ss.closed
		ss.mu.Unlock()
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
func (ss *RoutedSession) ensureAncestors(s *Session, prefix string) {
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
		s.Mkdir(p, 0o755)
	}
}

// dropSession forgets a shard session that failed to rehome, but only while
// it holds no descriptors: a fresh attach gets a fresh server-side session,
// which would orphan them.
func (ss *RoutedSession) dropSession(id uint32, s *Session) {
	ss.mu.Lock()
	for _, rf := range ss.fds {
		if rf.shard == id {
			ss.mu.Unlock()
			return
		}
	}
	if ss.sessions[id] == s {
		delete(ss.sessions, id)
	}
	ss.mu.Unlock()
}

// moved reacts to a Moved answer for a shard: refresh the map, then rehome
// the shard's session against its Remote's (possibly re-pointed) dial list.
// The same server-side session resumes under the same client ID, so open
// descriptors and the replay of unanswered calls survive the move.
//
// A migration announces its map in stages, so a refresh racing the cutover
// can install the transitional epoch — one that still points this shard at
// the old, now-fenced group. The rehome's attach then bounces with a Moved
// that names the real owner; fetching the map from that owner re-points
// the Remote, and the recovery loop the failed rehome left running picks
// up the new dial list on its next tick. Only when even the named owner
// yields no newer map is the session abandoned.
func (ss *RoutedSession) moved(id uint32, cause error) {
	ss.rt.moves.Add(1)
	var mv *movedErr
	if errors.As(cause, &mv) {
		// An attach-time refusal names the owner and epoch: wait for the
		// cutover's map instead of settling for a transitional one.
		ss.awaitEpoch(mv.mv)
	} else {
		ss.rt.refresh("")
	}
	ss.mu.Lock()
	s := ss.sessions[id]
	ss.mu.Unlock()
	if s == nil {
		return
	}
	if err := s.rehome(); err != nil {
		var mv *movedErr
		if errors.As(err, &mv) && ss.awaitEpoch(mv.mv) {
			return
		}
		ss.dropSession(id, s)
	}
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
func (ss *RoutedSession) awaitEpoch(mv wire.Moved) bool {
	deadline := time.Now().Add(ss.rt.opts.FailoverTimeout)
	b := ss.movedBackoff()
	for {
		if ss.rt.Map().Epoch >= mv.Epoch {
			return true
		}
		if ss.rt.refresh(mv.Addr) {
			continue
		}
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(b.next())
	}
}

// movedBackoff is the delay between retries after a Moved answer.
func (ss *RoutedSession) movedBackoff() backoff {
	return backoff{d: movedBackoffStart, max: 250 * time.Millisecond}
}

// doShard runs f against the shard pick() currently names, following Moved
// answers (refresh + rehome + backoff) up to maxMovedHops. pick re-resolves
// each attempt, so a migration that re-routes the path mid-retry is picked
// up. Errors other than Moved pass through untouched.
func (ss *RoutedSession) doShard(pick func() uint32, f func(s *Session) error) error {
	b := ss.movedBackoff()
	var err error
	for hop := 0; hop <= maxMovedHops; hop++ {
		if hop > 0 {
			time.Sleep(b.next())
		}
		id := pick()
		var s *Session
		s, err = ss.session(id)
		if err == nil {
			err = f(s)
		}
		if err == nil || !errors.Is(err, wire.ErrMoved) {
			return err
		}
		ss.moved(id, err)
	}
	return fmt.Errorf("wire client: shard routing did not converge after %d moved hops: %w", maxMovedHops, err)
}

// doPath routes a path-addressed operation.
func (ss *RoutedSession) doPath(p string, f func(s *Session, id uint32) error) error {
	var id uint32
	return ss.doShard(
		func() uint32 { id = ss.rt.route(p); return id },
		func(s *Session) error { return f(s, id) },
	)
}

// doFD routes a descriptor operation to the session holding the real
// descriptor. The shard is pinned at open time — migration moves the whole
// session (rehome), never the descriptor to a different shard.
func (ss *RoutedSession) doFD(fd fsapi.FD, f func(s *Session, rfd fsapi.FD) error) error {
	ss.mu.Lock()
	rf, ok := ss.fds[fd]
	ss.mu.Unlock()
	if !ok {
		return fsapi.ErrBadFD
	}
	return ss.doShard(
		func() uint32 { return rf.shard },
		func(s *Session) error { return f(s, rf.fd) },
	)
}

// registerFD allocates a virtual descriptor for a shard-local one. A session
// detached meanwhile has no table to register in: ErrClosed.
func (ss *RoutedSession) registerFD(id uint32, rfd fsapi.FD) (fsapi.FD, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return -1, ErrClosed
	}
	vfd := ss.nextFD
	ss.nextFD++
	ss.fds[vfd] = routedFD{shard: id, fd: rfd}
	return vfd, nil
}

// --- fsapi.Client ------------------------------------------------------

// Create creates a regular file on the path's owner shard.
func (ss *RoutedSession) Create(path string, perm uint32) (fsapi.FD, error) {
	var out fsapi.FD
	err := ss.doPath(path, func(s *Session, id uint32) error {
		fd, err := s.Create(path, perm)
		if err != nil {
			return err
		}
		out, err = ss.registerFD(id, fd)
		return err
	})
	if err != nil {
		return -1, err
	}
	return out, nil
}

// Open opens a file on the path's owner shard.
func (ss *RoutedSession) Open(path string, flags fsapi.OpenFlag, perm uint32) (fsapi.FD, error) {
	var out fsapi.FD
	err := ss.doPath(path, func(s *Session, id uint32) error {
		fd, err := s.Open(path, flags, perm)
		if err != nil {
			return err
		}
		out, err = ss.registerFD(id, fd)
		return err
	})
	if err != nil {
		return -1, err
	}
	return out, nil
}

// Close releases the descriptor. The virtual slot is freed either way —
// like close(2), the descriptor is gone even when the call errors.
func (ss *RoutedSession) Close(fd fsapi.FD) error {
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error { return s.Close(rfd) })
	if !errors.Is(err, fsapi.ErrBadFD) {
		ss.mu.Lock()
		delete(ss.fds, fd)
		ss.mu.Unlock()
	}
	return err
}

// Read reads at the descriptor's current position, which the shard session
// keeps.
func (ss *RoutedSession) Read(fd fsapi.FD, p []byte) (int, error) {
	var n int
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		n, err = s.Read(rfd, p)
		return err
	})
	return n, err
}

// Pread reads at an explicit offset.
func (ss *RoutedSession) Pread(fd fsapi.FD, p []byte, off uint64) (int, error) {
	var n int
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		n, err = s.Pread(rfd, p, off)
		return err
	})
	return n, err
}

// Write writes at the descriptor's current position.
func (ss *RoutedSession) Write(fd fsapi.FD, p []byte) (int, error) {
	var n int
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		n, err = s.Write(rfd, p)
		return err
	})
	return n, err
}

// Pwrite writes at an explicit offset.
func (ss *RoutedSession) Pwrite(fd fsapi.FD, p []byte, off uint64) (int, error) {
	var n int
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		n, err = s.Pwrite(rfd, p, off)
		return err
	})
	return n, err
}

// Seek repositions the descriptor in the shard session's table.
func (ss *RoutedSession) Seek(fd fsapi.FD, off int64, whence int) (int64, error) {
	var pos int64
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		pos, err = s.Seek(rfd, off, whence)
		return err
	})
	return pos, err
}

// Fsync checks the descriptor; see Session.Fsync.
func (ss *RoutedSession) Fsync(fd fsapi.FD) error {
	return ss.doFD(fd, func(s *Session, rfd fsapi.FD) error { return s.Fsync(rfd) })
}

// Ftruncate sets the file size.
func (ss *RoutedSession) Ftruncate(fd fsapi.FD, size uint64) error {
	return ss.doFD(fd, func(s *Session, rfd fsapi.FD) error { return s.Ftruncate(rfd, size) })
}

// Fallocate preallocates space.
func (ss *RoutedSession) Fallocate(fd fsapi.FD, size uint64) error {
	return ss.doFD(fd, func(s *Session, rfd fsapi.FD) error { return s.Fallocate(rfd, size) })
}

// Fstat stats an open descriptor.
func (ss *RoutedSession) Fstat(fd fsapi.FD) (fsapi.Stat, error) {
	var st fsapi.Stat
	err := ss.doFD(fd, func(s *Session, rfd fsapi.FD) error {
		var err error
		st, err = s.Fstat(rfd)
		return err
	})
	return st, err
}

// Stat resolves a path on its owner shard.
func (ss *RoutedSession) Stat(path string) (fsapi.Stat, error) {
	var st fsapi.Stat
	err := ss.doPath(path, func(s *Session, _ uint32) error {
		var err error
		st, err = s.Stat(path)
		return err
	})
	return st, err
}

// Lstat is Stat without following a final symlink.
func (ss *RoutedSession) Lstat(path string) (fsapi.Stat, error) {
	var st fsapi.Stat
	err := ss.doPath(path, func(s *Session, _ uint32) error {
		var err error
		st, err = s.Lstat(path)
		return err
	})
	return st, err
}

// Mkdir creates a directory on the path's owner shard.
func (ss *RoutedSession) Mkdir(path string, perm uint32) error {
	return ss.doPath(path, func(s *Session, _ uint32) error { return s.Mkdir(path, perm) })
}

// Rmdir removes an empty directory.
func (ss *RoutedSession) Rmdir(path string) error {
	return ss.doPath(path, func(s *Session, _ uint32) error { return s.Rmdir(path) })
}

// Unlink removes a file or symlink.
func (ss *RoutedSession) Unlink(path string) error {
	return ss.doPath(path, func(s *Session, _ uint32) error { return s.Unlink(path) })
}

// Rename moves old to new. Within one shard it is the server's atomic
// rename; across shards it degrades to a two-phase copy+unlink (directories
// recurse, symlinks re-link) — not atomic, but the only option when the two
// names live in different groups' NVMM.
func (ss *RoutedSession) Rename(oldPath, newPath string) error {
	// Every hop re-checks that the two names still share a shard: a Moved
	// answer may have brought a map that splits them.
	var cross bool
	err := ss.doShard(
		func() uint32 {
			id := ss.rt.route(oldPath)
			cross = id != ss.rt.route(newPath)
			return id
		},
		func(s *Session) error {
			if cross {
				return nil
			}
			return s.Rename(oldPath, newPath)
		},
	)
	if err == nil && cross {
		return ss.crossRename(oldPath, newPath)
	}
	return err
}

// crossRename implements rename across shard boundaries: copy to the
// destination shard, then unlink the source. Each sub-operation is itself
// routed (and Moved-retried) through the session.
func (ss *RoutedSession) crossRename(oldPath, newPath string) error {
	ss.rt.crossRenames.Add(1)
	st, err := ss.Lstat(oldPath)
	if err != nil {
		return err
	}
	switch st.Mode & fsapi.ModeTypeMask {
	case fsapi.ModeDir:
		if tst, terr := ss.Lstat(newPath); terr == nil {
			if !fsapi.IsDir(tst.Mode) {
				return fsapi.ErrNotDir
			}
		} else if !errors.Is(terr, fsapi.ErrNotExist) {
			return terr
		}
		if err := ss.Mkdir(newPath, st.Mode&fsapi.ModePermMask); err != nil && !errors.Is(err, fsapi.ErrExist) {
			return err
		}
		ents, err := ss.ReadDir(oldPath)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := ss.Rename(oldPath+"/"+e.Name, newPath+"/"+e.Name); err != nil {
				return err
			}
		}
		return ss.Rmdir(oldPath)
	case fsapi.ModeSymlink:
		target, err := ss.Readlink(oldPath)
		if err != nil {
			return err
		}
		if err := ss.Unlink(newPath); err != nil && !errors.Is(err, fsapi.ErrNotExist) {
			return err
		}
		if err := ss.Symlink(target, newPath); err != nil {
			return err
		}
		return ss.Unlink(oldPath)
	default:
		return ss.crossCopyFile(oldPath, newPath, st)
	}
}

// crossCopyFile moves one regular file across shards: replace the target
// name (rename(2) replaces the name, never writes through a symlink), copy
// the bytes in bounded chunks, carry times over, then unlink the source.
func (ss *RoutedSession) crossCopyFile(oldPath, newPath string, st fsapi.Stat) error {
	src, err := ss.Open(oldPath, fsapi.ORdonly, 0)
	if err != nil {
		return err
	}
	defer ss.Close(src)
	if tst, terr := ss.Lstat(newPath); terr == nil {
		if fsapi.IsDir(tst.Mode) {
			return fsapi.ErrIsDir
		}
		if err := ss.Unlink(newPath); err != nil {
			return err
		}
	} else if !errors.Is(terr, fsapi.ErrNotExist) {
		return terr
	}
	dst, err := ss.Create(newPath, st.Mode&fsapi.ModePermMask)
	if err != nil {
		return err
	}
	buf := make([]byte, 256<<10)
	var off uint64
	for {
		n, rerr := ss.Pread(src, buf, off)
		if n > 0 {
			if _, werr := ss.Pwrite(dst, buf[:n], off); werr != nil {
				ss.Close(dst)
				return werr
			}
			off += uint64(n)
		}
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			ss.Close(dst)
			return rerr
		}
		if n == 0 {
			break
		}
	}
	if err := ss.Close(dst); err != nil {
		return err
	}
	ss.Utimes(newPath, st.Atime, st.Mtime) // best-effort, like cp -p
	return ss.Unlink(oldPath)
}

// Symlink creates a symbolic link, routed by the link's own path (the
// target is an uninterpreted string and may point anywhere).
func (ss *RoutedSession) Symlink(target, linkPath string) error {
	return ss.doPath(linkPath, func(s *Session, _ uint32) error { return s.Symlink(target, linkPath) })
}

// Link creates a hard link. Hard links cannot span shards — the two names
// would live in different groups' NVMM with no shared inode — so a
// cross-shard link answers ErrCrossDir, like link(2) across mounts answers
// EXDEV.
func (ss *RoutedSession) Link(oldPath, newPath string) error {
	if ss.rt.route(oldPath) != ss.rt.route(newPath) {
		return fsapi.ErrCrossDir
	}
	return ss.doPath(oldPath, func(s *Session, _ uint32) error { return s.Link(oldPath, newPath) })
}

// Readlink returns a symlink's target.
func (ss *RoutedSession) Readlink(path string) (string, error) {
	var out string
	err := ss.doPath(path, func(s *Session, _ uint32) error {
		var err error
		out, err = s.Readlink(path)
		return err
	})
	return out, err
}

// ReadDir lists a directory, merging what other shards contribute to it: at
// the root, every hash shard's (and the "/" shard's) own root entries; at
// any directory, the subtree roots of prefix shards mounted directly under
// it (included only once they exist on their owner). Entries are
// deduplicated by name; merged listings are sorted.
func (ss *RoutedSession) ReadDir(path string) ([]fsapi.DirEntry, error) {
	var ents []fsapi.DirEntry
	var ownerID uint32
	err := ss.doPath(path, func(s *Session, id uint32) error {
		var err error
		ents, err = s.ReadDir(path)
		ownerID = id
		return err
	})
	if err != nil {
		return nil, err
	}
	m := ss.rt.Map()
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
			var more []fsapi.DirEntry
			id := sh.ID
			err := ss.doShard(
				func() uint32 { return id },
				func(s *Session) error {
					var err error
					more, err = s.ReadDir("/")
					return err
				},
			)
			if err != nil {
				return nil, err
			}
			for _, e := range more {
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
		st, err := ss.Stat(sh.Prefix)
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

// Chmod updates permission bits.
func (ss *RoutedSession) Chmod(path string, perm uint32) error {
	return ss.doPath(path, func(s *Session, _ uint32) error { return s.Chmod(path, perm) })
}

// Utimes sets access/modification times.
func (ss *RoutedSession) Utimes(path string, atime, mtime int64) error {
	return ss.doPath(path, func(s *Session, _ uint32) error { return s.Utimes(path, atime, mtime) })
}

// part is one shard's share of a routed batch.
type part struct {
	shard uint32
	sess  *Session // the shard's session when it was already attached
	idx   []int32  // positions in the caller's batch
	reqs  []wire.Request
	sub   submission
	sent  bool
}

// scatter is the reusable working set of one Submit: a part per shard the
// batch touches. parts[:n] are in use; the rest keep their buffers.
type scatter struct {
	parts []*part
	n     int
}

// part returns the in-use part for a shard, adding one when the batch has
// not touched the shard yet. Caller holds ss.mu.
func (sc *scatter) part(ss *RoutedSession, shard uint32) *part {
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
	p.shard, p.sess, p.sent = shard, ss.sessions[shard], false
	p.idx, p.reqs = p.idx[:0], p.reqs[:0]
	return p
}

// Submit splits an explicit batch by shard, starts every part, then waits
// for them, and lands the responses in request order. The parts overlap on
// the wire without a goroutine each: a session's submission is started
// (registered and queued for its writer) and waited for in two steps, and
// every part is started before any is waited for. A batch that touches one
// shard is the same code with one part. Create/open responses allocate
// virtual descriptors; descriptor requests are translated to their
// shard-local descriptors. Unlike the single-call path, Moved answers are
// not retried — they come back as CodeMoved responses for the caller (the
// benchmark reruns; the fsapi methods are the transparent path).
//
// The responses are the caller's for good. As with Session.Submit, the Data
// of the pread responses one shard answered may be views of one
// shared backing array — the reply frame they arrived in — so keeping a
// single Data alive keeps up to a whole frame (at most wire.MaxFrame)
// reachable; copy it out to hold on to less.
func (ss *RoutedSession) Submit(reqs []wire.Request) ([]wire.Response, error) {
	out := make([]wire.Response, len(reqs))
	tab := ss.rt.tab.Load() // one epoch routes the whole batch
	sc := ss.idle.Swap(nil)
	if sc == nil {
		sc = new(scatter)
	}
	sc.n = 0
	ss.mu.Lock() // one hold for the whole translation loop, not per request
	for i := range reqs {
		req := reqs[i] // copy: the FD field may be rewritten
		var id uint32
		switch {
		case req.Op == wire.OpSymlink:
			id = tab.Route(req.Path2).ID
		case req.Path != "":
			id = tab.Route(req.Path).ID
		default:
			rf, ok := ss.fds[req.FD]
			if !ok {
				out[i] = wire.Response{ID: req.ID, Op: req.Op, Code: wire.CodeOf(fsapi.ErrBadFD)}
				continue
			}
			id, req.FD = rf.shard, rf.fd
		}
		p := sc.part(ss, id)
		p.idx = append(p.idx, int32(i))
		p.reqs = append(p.reqs, req)
	}
	ss.mu.Unlock()
	var err error
	for _, p := range sc.parts[:sc.n] {
		perr := ss.startPart(p, out)
		p.sent = perr == nil
		err = joinShardErr(err, p.shard, perr)
	}
	for _, p := range sc.parts[:sc.n] {
		if !p.sent {
			continue
		}
		perr := p.sub.wait()
		if perr == nil {
			// The shard session's open-file table follows the part's creates,
			// opens and closes, by their shard-local descriptors.
			for j, i := range p.idx {
				p.sub.s.track(&p.reqs[j], &out[i])
			}
		}
		err = joinShardErr(err, p.shard, perr)
	}
	if err == nil {
	register:
		for _, p := range sc.parts[:sc.n] {
			for _, i := range p.idx {
				if r := &out[i]; r.Code == wire.CodeOK && (r.Op == wire.OpCreate || r.Op == wire.OpOpen) {
					if r.FD, err = ss.registerFD(p.shard, r.FD); err != nil {
						break register
					}
				}
			}
		}
	}
	for _, p := range sc.parts[:sc.n] {
		clear(p.reqs) // the requests point at the caller's paths and data
	}
	ss.idle.Store(sc)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// startPart attaches the part's shard session if need be and starts the
// part's submission on it.
func (ss *RoutedSession) startPart(p *part, out []wire.Response) error {
	s := p.sess
	if s == nil {
		var err error
		if s, err = ss.session(p.shard); err != nil {
			return err
		}
	}
	return s.start(&p.sub, p.reqs, out, p.idx, nil)
}

// joinShardErr adds a shard's failure to a batch's error.
func joinShardErr(err error, shard uint32, perr error) error {
	if perr == nil {
		return err
	}
	return errors.Join(err, fmt.Errorf("shard %d: %w", shard, perr))
}

// Detach releases every shard session.
func (ss *RoutedSession) Detach() error {
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil
	}
	ss.closed = true
	sessions := ss.sessions
	ss.sessions = nil
	ss.fds = nil
	ss.mu.Unlock()
	var errs []error
	for id, s := range sessions {
		if err := s.Detach(); err != nil {
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
