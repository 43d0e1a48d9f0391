package obs

// Event identifies a rare, individually countable occurrence worth
// surfacing on its own rather than folding into per-op aggregates: lock
// timeouts, recovery actions, allocator steals. Events are counted with a
// single shared atomic per kind — they fire orders of magnitude less often
// than operations, so sharding would buy nothing.
type Event uint8

const (
	// EvLineLockTimeout counts busy-flag line waits that exceeded the line
	// lock timeout and triggered a recovery attempt.
	EvLineLockTimeout Event = iota
	// EvWaiterRecovery counts waiter-performs-recovery actions: a waiter
	// found the line still stuck after the timeout and repaired it.
	EvWaiterRecovery
	// EvWaiterRecoveryNoop counts recovery attempts that found the line
	// already released by the time the recovery lock was held.
	EvWaiterRecoveryNoop
	// EvRenameLogRecovered counts cross-directory rename logs completed
	// during recovery (waiter- or mount-time).
	EvRenameLogRecovered
	// EvMountRecovery counts mount-time recovery passes over an unclean
	// volume.
	EvMountRecovery
	// EvDirChainExtend counts directory block-chain extensions.
	EvDirChainExtend
	// EvSegLockSteal counts block-allocator segment locks stolen from
	// stale holders.
	EvSegLockSteal
	// EvFileLockTimeout counts file-lock waits that exceeded the lock
	// timeout and took the lock over from a holder presumed dead.
	EvFileLockTimeout
	// NumEvents bounds the Event enum.
	NumEvents
)

var eventNames = [NumEvents]string{
	EvLineLockTimeout:    "line_lock_timeout",
	EvWaiterRecovery:     "waiter_recovery",
	EvWaiterRecoveryNoop: "waiter_recovery_noop",
	EvRenameLogRecovered: "rename_log_recovered",
	EvMountRecovery:      "mount_recovery",
	EvDirChainExtend:     "dir_chain_extend",
	EvSegLockSteal:       "seg_lock_steal",
	EvFileLockTimeout:    "file_lock_timeout",
}

// String returns the event name (snake_case, stable for exporters).
func (e Event) String() string {
	if e < NumEvents {
		return eventNames[e]
	}
	return "unknown"
}

// LockClass distinguishes the lock families whose contended waits are
// timed: directory lines' busy bits and files' lock words, both in NVMM.
type LockClass uint8

const (
	// LockLine is the persistent busy-flag lock of a directory line.
	LockLine LockClass = iota
	// LockFile is a file's reader/writer lock word in its inode.
	LockFile
	// NumLockClasses bounds the LockClass enum.
	NumLockClasses
)

var lockClassNames = [NumLockClasses]string{LockLine: "line", LockFile: "file"}

// String returns the lock class name.
func (c LockClass) String() string {
	if c < NumLockClasses {
		return lockClassNames[c]
	}
	return "unknown"
}

// Event counts one occurrence of e. Nil-safe.
func (r *Registry) Event(e Event) {
	if r == nil || e >= NumEvents {
		return
	}
	r.events[e].Add(1)
}

// LockWait records one contended lock acquisition of class c that blocked
// for ns nanoseconds. Only contended waits reach the registry — the
// uncontended fast paths (a first-try CAS) record nothing — so the
// wait histogram is a pure picture of contention. Nil-safe.
func (r *Registry) LockWait(c LockClass, ns uint64) {
	if r == nil || c >= NumLockClasses {
		return
	}
	lw := &r.lockWait[c]
	lw.waits.Add(1)
	lw.ns.Add(ns)
	lw.hist[bucketOf(ns)].Add(1)
}
