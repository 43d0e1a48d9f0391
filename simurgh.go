// Package simurgh is the public API of this reproduction of "Simurgh: A
// Fully Decentralized and Secure NVMM User Space File System" (SC '21).
//
// A Volume is an emulated NVMM device holding one Simurgh file system.
// Processes attach with their credentials and receive a POSIX-like Client;
// all attached clients operate on the shared device concurrently with no
// central coordinator, as in the paper's preload-library design.
//
// Quickstart:
//
//	vol, _ := simurgh.Create(256 << 20) // 256 MiB emulated NVMM
//	c, _ := vol.Attach(simurgh.Cred{UID: 1000, GID: 1000})
//	fd, _ := c.Create("/hello.txt", 0o644)
//	c.Write(fd, []byte("hi"))
//	c.Close(fd)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced evaluation.
package simurgh

import (
	"simurgh/internal/core"
	"simurgh/internal/cost"
	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/pmem"
)

// Re-exported identity and API types.
type (
	// Cred is a process identity (effective uid/gid).
	Cred = fsapi.Cred
	// Client is a process's handle on the file system.
	Client = fsapi.Client
	// FD is a file descriptor.
	FD = fsapi.FD
	// Stat describes a file.
	Stat = fsapi.Stat
	// DirEntry is a directory listing entry.
	DirEntry = fsapi.DirEntry
	// OpenFlag selects open modes.
	OpenFlag = fsapi.OpenFlag
	// RecoveryStats reports what a mount-time recovery did.
	RecoveryStats = core.RecoveryStats
)

// Open flags.
const (
	ORdonly = fsapi.ORdonly
	OWronly = fsapi.OWronly
	ORdwr   = fsapi.ORdwr
	OCreate = fsapi.OCreate
	OExcl   = fsapi.OExcl
	OTrunc  = fsapi.OTrunc
	OAppend = fsapi.OAppend
)

// Root is the superuser credential.
var Root = fsapi.Root

// Shared errors (see package fsapi for the full set).
var (
	ErrNotExist = fsapi.ErrNotExist
	ErrExist    = fsapi.ErrExist
	ErrNotDir   = fsapi.ErrNotDir
	ErrIsDir    = fsapi.ErrIsDir
	ErrNotEmpty = fsapi.ErrNotEmpty
	ErrPerm     = fsapi.ErrPerm
	ErrBadFD    = fsapi.ErrBadFD
	ErrNoSpace  = fsapi.ErrNoSpace
)

// Options tunes a Volume.
type Options struct {
	// RelaxedWrites disables the per-file exclusive write lock for
	// overwrites of stored bytes (the "relaxed" variant of Fig 7k); the
	// application must coordinate concurrent writers itself. A write that
	// grows the file or fills a hole still takes the lock.
	RelaxedWrites bool
	// ChargeProtectedCalls adds the paper's measured jmpp/pret cycle delta
	// (46 cycles @ 2.5 GHz) to every file-system call, as the evaluation
	// does. Off by default.
	ChargeProtectedCalls bool
	// Tracked enables durability tracking on the device so crashes can be
	// simulated (slower; for testing).
	Tracked bool
}

// Volume is an emulated NVMM device with a mounted Simurgh file system.
type Volume struct {
	dev *pmem.Device
	fs  *core.FS
}

// Create makes a fresh volume of the given size, formatted and mounted,
// owned by root.
func Create(size uint64) (*Volume, error) {
	return CreateWithOptions(size, Options{})
}

// CreateWithOptions makes a fresh volume with explicit options.
func CreateWithOptions(size uint64, opts Options) (*Volume, error) {
	dev := pmem.New(size)
	setMode(dev, opts)
	fs, err := core.Format(dev, fsapi.Root, coreOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Volume{dev: dev, fs: fs}, nil
}

// setMode puts dev in the persistence-tracking mode opts asks for. A device
// already in that mode is left alone: switching to ModeTracked again would
// make every store not yet persisted durable.
func setMode(dev *pmem.Device, opts Options) {
	m := pmem.ModeFast
	if opts.Tracked {
		m = pmem.ModeTracked
	}
	if dev.Mode() != m {
		dev.SetMode(m)
	}
}

func coreOptions(opts Options) core.Options {
	co := core.Options{RelaxedWrites: opts.RelaxedWrites}
	if opts.ChargeProtectedCalls {
		co.Cost = cost.SimurghModel()
	}
	return co
}

// Attach registers a process and returns its client handle.
func (v *Volume) Attach(cred Cred) (Client, error) { return v.fs.Attach(cred) }

// Unmount marks the volume cleanly shut down.
func (v *Volume) Unmount() { v.fs.Unmount() }

// Crash simulates a power failure (Tracked volumes only): all stores that
// were not explicitly persisted are dropped.
func (v *Volume) Crash() { v.dev.Crash() }

// Remount re-mounts after a crash or unmount, running recovery as needed,
// and returns what the recovery found. The device takes the tracking mode
// opts asks for.
func (v *Volume) Remount(opts Options) (*RecoveryStats, error) {
	setMode(v.dev, opts)
	fs, stats, err := core.Mount(v.dev, coreOptions(opts))
	if err != nil {
		return nil, err
	}
	v.fs = fs
	return stats, nil
}

// Maintain runs the file-system maintenance check (§4.3): it compacts
// directory hash-block chains whose tails became empty and completes any
// leftover half-done operations. Safe to run concurrently with normal use.
func (v *Volume) Maintain() MaintainStats { return v.fs.Maintain() }

// MaintainStats reports what a maintenance pass reclaimed.
type MaintainStats = core.MaintainStats

// StatsSnapshot is a point-in-time view of the volume's per-operation
// observability counters: call/error counts, latency histograms and NVMM
// flush/fence/byte attribution per operation class. Diff two snapshots
// with Sub to scope them to an interval, or render one with WriteTable.
type StatsSnapshot = obs.Snapshot

// Stats snapshots the volume's per-operation counters.
func (v *Volume) Stats() StatsSnapshot { return v.fs.Stats() }

// SetStatsSamplePeriod sets how often operations are deep-sampled for
// latency and NVMM attribution: every period-th call (rounded up to a
// power of two; 1 samples every call). Call/error counts are always
// exact. The default period is obs.DefaultSamplePeriod.
func (v *Volume) SetStatsSamplePeriod(period int) { v.fs.Obs().SetSamplePeriod(period) }

// Device exposes the underlying emulated NVMM device.
func (v *Volume) Device() *pmem.Device { return v.dev }

// FS exposes the core file system (used by the benchmark harness).
func (v *Volume) FS() *core.FS { return v.fs }
