package main

import (
	"fmt"

	"simurgh/internal/shard"
)

// scale fixes the data-set sizes of the four workloads. The benchmark runs
// at fullScale; the smoke test runs the same code at smokeScale so tier-1
// stays fast.
type scale struct {
	VolumeBytes uint64 // one pmem arena
	StatDirs    int    // top-level directories shared by stat and varmail
	StatFiles   int    // files per stat directory
	DataBytes   uint64 // read4k/write4k: total bytes across the clients' files
	MailFiles   int    // varmail file set
	CrashOps    int    // ops in the crash-durability pass
	CrashVolume uint64 // tracked-mode arena of the crash pass
	CrashData   uint64 // write4k file size in the crash pass
}

var fullScale = scale{
	VolumeBytes: 128 << 20,
	StatDirs:    64,
	StatFiles:   256,
	DataBytes:   64 << 20,
	MailFiles:   1024,
	CrashOps:    20000,
	CrashVolume: 64 << 20,
	CrashData:   16 << 20,
}

var smokeScale = scale{
	VolumeBytes: 12 << 20,
	StatDirs:    8,
	StatFiles:   16,
	DataBytes:   2 << 20,
	MailFiles:   64,
	CrashOps:    500,
	CrashVolume: 16 << 20,
	CrashData:   1 << 20,
}

const (
	blockSize     = 4096
	batchSize     = 32
	mailFileBytes = 16 << 10
	mailReadBuf   = 64 << 10
	masterBlocks  = 1024 // master table = masterBlocks 4 KiB blocks + one spare
	keySlots      = masterBlocks * blockSize / 64
)

// mix is splitmix64's finalizer: the one hash every seeded choice goes through.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a per-client splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for every n
// the generator uses.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// model is everything the generator derives from the seed before a run: the
// payload table, the path lists, and the expected attributes of every file.
// The system under test only ever sees values taken from it.
type model struct {
	seed uint64
	sc   scale

	// master is the payload table. Every 4 KiB payload or expected block is a
	// 64-byte-aligned window into it, so generating a payload costs no copy
	// and checking one is a bytes.Equal.
	master []byte

	statPaths []string
	statSize  []uint32
	statPerm  []uint32

	mailPaths []string
}

func newModel(seed uint64, sc scale) *model {
	m := &model{seed: seed, sc: sc, master: make([]byte, (masterBlocks+1)*blockSize)}
	r := rng{s: mix(seed ^ 0x6d617374)}
	for i := 0; i+8 <= len(m.master); i += 8 {
		v := r.next()
		for j := 0; j < 8; j++ {
			m.master[i+j] = byte(v >> (8 * j))
		}
	}
	n := sc.StatDirs * sc.StatFiles
	m.statPaths = make([]string, n)
	m.statSize = make([]uint32, n)
	m.statPerm = make([]uint32, n)
	for i := 0; i < n; i++ {
		d, f := i/sc.StatFiles, i%sc.StatFiles
		m.statPaths[i] = fmt.Sprintf("%s/sub/f%04d", topDir(d), f)
		h := mix(seed ^ 0x73746174 ^ uint64(i)<<20)
		m.statSize[i] = uint32(h%5) * 512
		m.statPerm[i] = 0o600 | uint32(h>>8)&0o066
	}
	m.mailPaths = make([]string, sc.MailFiles)
	for f := range m.mailPaths {
		m.mailPaths[f] = fmt.Sprintf("%s/mail/m%04d", topDir(f%sc.StatDirs), f)
	}
	return m
}

func topDir(d int) string { return fmt.Sprintf("/d%02d", d) }

// window returns the 4 KiB payload stored at key slot k.
func (m *model) window(k uint32) []byte {
	off := int(k) * 64
	return m.master[off : off+blockSize : off+blockSize]
}

// fillKey is the key of the block a data file is populated with.
func (m *model) fillKey(client int, block uint64) uint32 {
	return uint32(mix(m.seed^0x66696c6c^uint64(client)<<48^block) % keySlots)
}

// writeKey is the key of the payload of a client's n-th write.
func (m *model) writeKey(client int, n uint64) uint32 {
	return uint32(mix(m.seed^0x77726974^uint64(client)<<48^n) % keySlots)
}

// mailBlock is the 4 KiB block every part of mail file f is made of, so any
// interleaving of whole-block writes and appends by several clients leaves
// the file a repetition of it.
func (m *model) mailBlock(f int) []byte {
	return m.window(uint32(f%masterBlocks) * (blockSize / 64))
}

// dataBlocks is the number of 4 KiB blocks in each client's data file.
func (m *model) dataBlocks(clients int) uint64 {
	return m.sc.DataBytes / uint64(clients) / blockSize
}

// routeMap is the canonical hash-sharded map file names are probed against.
// Route depends only on the shard IDs and their count, never on addresses.
func routeMap(shards int) *shard.Map {
	m := &shard.Map{Epoch: 1}
	for i := 0; i < shards; i++ {
		sh := shard.Shard{ID: uint32(i), Addrs: []string{"probe"}}
		if shards == 1 {
			sh.Prefix = "/"
		}
		m.Shards = append(m.Shards, sh)
	}
	return m
}

// pathOnShard returns the first of prefix0, prefix1, ... that a hash-sharded
// map of the given size routes to shard want. Placement by hash is opaque;
// probing pins it.
func pathOnShard(prefix string, shards, want int) string {
	rm := routeMap(shards)
	for probe := 0; ; probe++ {
		p := fmt.Sprintf("%s%d", prefix, probe)
		if rm.Route(p).ID == uint32(want) {
			return p
		}
	}
}

// dataPath names client i's data file so that it lands on shard i mod 2 of a
// two-shard map (and therefore on shard 0 of a one-shard map). The same name
// is used on every rung.
func dataPath(client int) string {
	return pathOnShard(fmt.Sprintf("/w%02d-", client), 2, client%2)
}

// opHash folds the generated op stream into one number, so two runs can be
// shown to have issued the same operations.
type opHash struct{ h uint64 }

func (o *opHash) add(op uint8, a, b uint64) {
	o.h = mix(o.h ^ uint64(op) ^ a<<8 ^ mix(b))
}
