package wire

import "sync"

// Buffer pooling for the wire hot path.
//
// Frames, reply payloads, and request coalescing buffers churn at request
// rate; allocating them per frame made the allocator — not the FS — the
// throughput ceiling. Buffers are pooled in a few size
// classes and handed around inside a *Buf wrapper so that returning one to
// the pool never boxes a slice header (sync.Pool.Put of a bare []byte
// allocates the very header we are trying to avoid).
//
// Ownership contract: exactly one owner at a time. GetBuf transfers
// ownership to the caller; PutBuf transfers it back and the caller must not
// touch B afterwards. FrameReader owns its current buffer until Release;
// the client's refcounted payload release is the other release point (see
// DESIGN.md §6). Double-put is a correctness bug the -race lifetime tests
// exist to catch.

// Buf is a pooled byte buffer. B may be re-sliced or grown by the owner;
// PutBuf re-classes it by its final capacity.
type Buf struct {
	B []byte
}

// bufClasses are the pooled capacity classes, smallest first. The third
// class is MaxIO plus headroom so a full 1 MiB read chunk plus its framing
// stays in one class; the last fits any legal frame.
var bufClasses = [...]int{4 << 10, 64 << 10, MaxIO + (64 << 10), MaxFrame + 16}

var bufPools [len(bufClasses)]sync.Pool

// GetBuf returns a pooled buffer with len(B) == n. n beyond MaxFrame+16 is
// served by a plain allocation (no class fits; PutBuf will still accept it
// into the largest class it covers).
func GetBuf(n int) *Buf {
	for i, c := range bufClasses {
		if n <= c {
			if v := bufPools[i].Get(); v != nil {
				b := v.(*Buf)
				b.B = b.B[:cap(b.B)][:n]
				return b
			}
			return &Buf{B: make([]byte, c)[:n]}
		}
	}
	return &Buf{B: make([]byte, n)}
}

// PutBuf returns b to the pool. nil is a no-op so release paths need not
// branch. The buffer is classed by capacity: it re-enters the largest class
// its capacity fully serves, so a buffer grown by append still pools.
func PutBuf(b *Buf) {
	if b == nil {
		return
	}
	c := cap(b.B)
	for i := len(bufClasses) - 1; i >= 0; i-- {
		if c >= bufClasses[i] {
			b.B = b.B[:0]
			bufPools[i].Put(b)
			return
		}
	}
	// Smaller than every class (caller shrank it): drop for GC.
}
