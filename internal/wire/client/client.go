// Package client is the remote side of the wire protocol: a Remote is an
// fsapi.FileSystem backed by a simurghd server, a Router one backed by a
// sharded cluster, and each Attach yields a Session — the one fsapi.Client
// of this package, whose calls travel the network. A Session is built over a
// route table (the Router's shard map, or a Remote's one shard, "/") and
// holds the process's open-file table and a link per shard it has touched: a
// connection and the server-side session behind it. Links pipeline: every
// call is enqueued to a writer goroutine that coalesces whatever is waiting
// into one KindBatch frame (AnyCall-style aggregation), so N goroutines
// issuing calls concurrently share round trips instead of paying one each.
// Replies are matched by request ID, out of order.
//
// A Remote may name several addresses (a replicated primary/backup group):
// attaches probe the list and follow a backup's epoch-0 Moved to the
// current primary. A link connects one way, through one loop, for its first
// attach, after losing its connection and after a Moved: each pass attaches to
// whichever node now serves the volume, resumes the server-side session by
// client ID and replays the unacknowledged requests (the server deduplicates
// by request ID, so replays are exactly-once for replicated operations).
// Passes back off within the failover budget, and between them the router
// refetches its shard map when a pass reached no node or was refused by a
// newer epoch, so a link follows its shard to the group that owns it now.
//
// The packages above this one do not know the network exists: fstest's
// conformance suite, simurghbench load, and simurghsh run unmodified against
// a Remote or a Router.
package client

import (
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/shard"
	"simurgh/internal/wire"
)

// ErrClosed reports use of a detached or failed session.
var ErrClosed = errors.New("wire client: session closed")

// ErrNoPrimary reports that no address of the dial list produced a serving
// primary within the failover budget.
var ErrNoPrimary = errors.New("wire client: no reachable primary")

// maxCoalesce bounds the payload the writer merges into one batch frame,
// leaving frame-header headroom under wire.MaxFrame.
const maxCoalesce = wire.MaxFrame - 1024

// dialTimeout bounds each TCP connect and each attach handshake.
const dialTimeout = 5 * time.Second

// backoff is a jittered, doubling retry delay: each wait is drawn from
// [d/2, d], and d then doubles, up to max.
type backoff struct{ d, max time.Duration }

// next returns the wait before the next retry.
func (b *backoff) next() time.Duration {
	w := b.d/2 + time.Duration(rand.Int63n(int64(b.d/2)+1))
	b.d = min(2*b.d, b.max)
	return w
}

// Options tunes a Remote.
type Options struct {
	// FailoverTimeout is the total budget a link's connect loop spends
	// re-resolving the primary before it gives up: after a lost connection,
	// and also for a session's first attach, which retries a refused or
	// unreachable group until the budget runs out. Zero disables
	// reconnection, and makes an attach one pass, unless the dial list has
	// more than one address, in which case the default is 10s.
	FailoverTimeout time.Duration
	// Obs, when set, makes sessions participants in distributed tracing:
	// 1-in-TraceSample submissions are tagged with a trace ID, sent in
	// KindBatchTraced frames, and produce client-side spans (enqueue wait,
	// vectored send, round trip) in this registry when its flight recorder
	// is enabled. Nil disables tracing entirely.
	Obs *obs.Registry
	// TraceSample is the trace sampling period (rounded up to a power of
	// two): one submission in TraceSample carries a trace context. Default
	// 1024.
	TraceSample int
}

func (o *Options) fillDefaults(multiAddr bool) {
	if o.FailoverTimeout <= 0 && multiAddr {
		o.FailoverTimeout = 10 * time.Second
	}
	if o.TraceSample <= 0 {
		o.TraceSample = 1024
	}
}

// Stats is a point-in-time snapshot of a Remote's client-side counters.
type Stats struct {
	// Dials counts TCP connections established.
	Dials uint64
	// OverloadRetries is always zero: no server answers a call with
	// CodeOverload, so no call is retried. It stays until the benchmark's
	// ledger, which reads it, stops doing so (like RoutedSession).
	OverloadRetries uint64
	// Redirects counts the epoch-0 Moved answers attaches met: a backup's
	// refusal, followed to the primary it names (if it names one).
	Redirects uint64
	// Failovers counts successful reconnects of a link that held a
	// session: after a lost connection, or after a Moved (rehome).
	Failovers uint64
	// Replays counts requests re-sent during failovers.
	Replays uint64
}

// stats is the live (atomic) form of Stats, shared by Remote and Sessions.
type stats struct {
	dials     atomic.Uint64
	redirects atomic.Uint64
	failovers atomic.Uint64
	replays   atomic.Uint64
}

func (s *stats) snapshot() Stats {
	return Stats{
		Dials:     s.dials.Load(),
		Redirects: s.redirects.Load(),
		Failovers: s.failovers.Load(),
		Replays:   s.replays.Load(),
	}
}

// Remote is a served volume reached over the network. It implements
// fsapi.FileSystem: each Attach dials a connection and performs the wire
// handshake.
type Remote struct {
	addrs  []string
	opts   Options
	st     stats
	closed atomic.Bool // see Close

	mu      sync.Mutex
	name    string // remote FS name, learned from the first AttachOK
	primary string // last address that served an attach

	// claim, when set, is the shard claim attaches carry (set by the
	// router): the server refuses the attach with KindMoved when the shard
	// is served elsewhere, instead of silently handing out a session that
	// every subsequent operation would fence.
	claim *wire.AttachClaim

	// rt is the route table this Remote serves: the Router that dialed it,
	// whose map the connect loop refreshes, or the Remote's own one-shard
	// table, "/" → this Remote, unclaimed, built on first use (see router).
	rt *Router
}

// setClaim makes every subsequent attach claim a shard at a map epoch
// (router use; see internal/shard).
func (r *Remote) setClaim(shardID uint32, epoch uint64) {
	r.mu.Lock()
	r.claim = &wire.AttachClaim{Shard: shardID, Epoch: epoch}
	r.mu.Unlock()
}

// setAddrs replaces the dial list — the router points a shard's Remote at
// the shard's new owner group after a migration.
func (r *Remote) setAddrs(addrs []string) {
	if len(addrs) == 0 {
		return
	}
	r.mu.Lock()
	r.addrs = append(r.addrs[:0:0], addrs...)
	r.primary = addrs[0]
	r.mu.Unlock()
}

// Dial prepares a Remote for addr — a host:port, or a comma-separated list
// of them (a replication group; the client finds the primary). The servers
// are first contacted at Attach.
func Dial(addr string, opts Options) (*Remote, error) {
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, fmt.Errorf("wire client: empty address")
	}
	opts.fillDefaults(len(addrs) > 1)
	return &Remote{addrs: addrs, opts: opts, primary: addrs[0]}, nil
}

// router returns the Remote's route table. A Remote the caller dialed
// builds its own on first use: shard 0, "/", at epoch 0, served by r. That
// table is fixed (see Router.fixed).
func (r *Remote) router() *Router {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.rt == nil {
		m := &shard.Map{Shards: []shard.Shard{{ID: 0, Prefix: "/", Addrs: append([]string(nil), r.addrs...)}}}
		// Not NewRouter: its defaults would turn failover on for one address.
		rt := newRouter(m, nil, RouterOptions{r.opts})
		rt.remotes[0] = r
		rt.fixed = true
		r.rt = rt
	}
	return r.rt
}

func splitAddrs(addr string) []string {
	var out []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

func (r *Remote) dial(addr string) (net.Conn, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err == nil {
		r.st.dials.Add(1)
	}
	return conn, err
}

// Stats snapshots the client-side counters.
func (r *Remote) Stats() Stats { return r.st.snapshot() }

// Name identifies the remote file system once known ("wire(<addr>)" before
// the first successful attach).
func (r *Remote) Name() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.name != "" {
		return "wire(" + r.name + ")"
	}
	return "wire(" + strings.Join(r.addrs, ",") + ")"
}

// Close ends reconnection. A Remote holds no connection of its own, and the
// sessions attached keep the connections they hold (detach them
// individually), but from now on a link that loses its transport gives up
// at its connect loop's next pass instead of dialing again, and an attach
// fails with ErrClosed.
func (r *Remote) Close() error {
	r.closed.Store(true)
	return nil
}

// noNodeErr marks an attach pass that reached no node: every dial failed.
type noNodeErr struct{ err error }

func (e *noNodeErr) Error() string { return e.err.Error() }

func (e *noNodeErr) Unwrap() error { return e.err }

// movedErr carries a KindMoved answer out of the handshake. At epoch ≥ 1
// the claimed shard is served elsewhere, and it unwraps to wire.ErrMoved so
// routers can match it and refetch the shard map; attachConn follows an
// epoch-0 one (a backup naming its primary) itself.
type movedErr struct{ mv wire.Moved }

func (e *movedErr) Error() string {
	return fmt.Sprintf("wire client: shard %d moved (epoch %d, owner %q)", e.mv.Shard, e.mv.Epoch, e.mv.Addr)
}

func (e *movedErr) Unwrap() error { return wire.ErrMoved }

// attachConn resolves the current primary and performs one attach
// handshake there: it tries the last known-good address first, follows a
// backup's epoch-0 Moved to the primary it names, and falls back to the
// rest of the dial list. On success the session keeps conn and fr. A pass
// whose every dial failed answers *noNodeErr.
func (r *Remote) attachConn(cred fsapi.Cred, clientID uint64) (net.Conn, *wire.FrameReader, error) {
	r.mu.Lock()
	first := r.primary
	addrs := append([]string(nil), r.addrs...)
	claim := r.claim
	r.mu.Unlock()
	candidates := make([]string, 0, len(addrs)+1)
	candidates = append(candidates, first)
	for _, a := range addrs {
		if a != first {
			candidates = append(candidates, a)
		}
	}
	attach := wire.AppendAttach(nil, cred, clientID, claim)
	var lastErr error
	reached := false
	for _, addr := range candidates {
		for hop := 0; addr != "" && hop < maxMovedHops; hop++ {
			conn, err := r.dial(addr)
			if err != nil {
				lastErr = err
				break
			}
			reached = true
			fr := wire.NewFrameReader(conn)
			name, err := handshake(conn, fr, attach)
			if err == nil {
				r.mu.Lock()
				r.name, r.primary = name, addr
				r.mu.Unlock()
				return conn, fr, nil
			}
			conn.Close()
			var mv *movedErr
			if errors.As(err, &mv) {
				if mv.mv.Epoch != 0 {
					// The whole group stopped serving the claimed shard; no
					// other candidate will differ. Surface it so the router
					// refetches.
					return nil, nil, err
				}
				// A backup: try the primary it names. An empty name, or a
				// chain that runs out, moves on to the next candidate.
				r.st.redirects.Add(1)
				addr = mv.mv.Addr
				lastErr = wire.ErrNotPrimary
				continue
			}
			lastErr = err
			break
		}
	}
	if lastErr == nil {
		lastErr = ErrNoPrimary
	}
	if !reached {
		lastErr = &noNodeErr{lastErr}
	}
	return nil, nil, lastErr
}

// Attach opens a session for cred: one connection, one server-side
// fsapi.Client holding its descriptors, and the open-file table (flags,
// positions) here in the process — the remote equivalent of a process
// preloading the library. The session is the one a Router hands out, over a
// one-shard route table: every path routes to this Remote.
func (r *Remote) Attach(cred fsapi.Cred) (fsapi.Client, error) {
	l, err := r.attach(cred)
	if err != nil {
		return nil, err
	}
	s := r.router().newSession(cred)
	s.links[0] = l
	return s, nil
}

// attach opens one link: a connection and the server-side session behind
// it, within the failover budget (see link.connect).
func (r *Remote) attach(cred fsapi.Cred) (*link, error) {
	clientID := newClientID()
	l := &link{
		r:        r,
		cred:     cred,
		clientID: clientID,
		pend:     make(map[uint32]*pendingCall),
		sendq:    make(chan sendItem, 256),
		dead:     make(chan struct{}),
	}
	if r.opts.Obs != nil {
		l.tr = r.opts.Obs
		// Trace IDs are node-namespaced: the high 16 bits come from this
		// session's random client identity, the low 48 from a submission
		// counter, so concurrently-sampling clients stay distinguishable.
		l.traceBase = clientID &^ (uint64(1)<<48 - 1)
		if l.traceBase == 0 {
			l.traceBase = 1 << 48
		}
		p := 1
		for p < r.opts.TraceSample {
			p <<= 1
		}
		l.traceMask = uint64(p) - 1
	}
	l.cmu.Lock()
	defer l.cmu.Unlock()
	if err := l.connect(true); err != nil {
		return nil, err
	}
	return l, nil
}

// handshake sends KindAttach (with the pre-encoded attach payload, which
// may carry a shard claim) and waits for KindAttachOK, returning the
// server's file system name. fr must be the reader the session will keep
// using, so no buffered bytes are lost across the handoff. A KindMoved
// answer surfaces as *movedErr.
func handshake(conn net.Conn, fr *wire.FrameReader, attach []byte) (string, error) {
	conn.SetDeadline(time.Now().Add(dialTimeout))
	defer conn.SetDeadline(time.Time{})
	werr := wire.WriteFrame(conn, wire.KindAttach, attach)
	// A write failure usually means the server refused us (conn limit,
	// draining) and closed after sending an error frame; that frame is
	// the real answer, so try to read it before surfacing the raw error.
	kind, payload, err := fr.Next()
	if err != nil {
		if werr != nil {
			return "", werr
		}
		return "", err
	}
	switch kind {
	case wire.KindAttachOK:
		return string(payload), nil
	case wire.KindMoved:
		mv, err := wire.ParseMoved(payload)
		if err != nil {
			return "", err
		}
		return "", &movedErr{mv: mv}
	case wire.KindErr:
		return "", wire.ParseErrFrame(payload)
	default:
		return "", fmt.Errorf("%w: unexpected kind %d in handshake", wire.ErrBadMessage, kind)
	}
}

// newClientID draws a nonzero 64-bit session-resume identity.
func newClientID() uint64 {
	var b [8]byte
	for {
		if _, err := crand.Read(b[:]); err != nil {
			// Entropy exhaustion is not a real failure mode on supported
			// platforms; a time-derived ID keeps us running regardless.
			return uint64(time.Now().UnixNano()) | 1
		}
		if id := binary.LittleEndian.Uint64(b[:]); id != 0 {
			return id
		}
	}
}
