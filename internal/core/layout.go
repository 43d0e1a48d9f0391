// Package core implements the Simurgh file system library (§4): a fully
// decentralized NVMM file system in which every attached process performs
// data and metadata operations directly against shared persistent memory,
// coordinated only through atomic flags, per-line busy-wait locks and the
// valid/dirty object protocol — there is no central server and no kernel
// involvement past the bootstrap.
package core

import (
	"simurgh/internal/pmem"
)

// Object classes managed by the slab allocator.
const (
	ClassInode = iota
	ClassDirBlock
	ClassFileEntry
	ClassExtent
	ClassBlob
	numClasses
)

// Object sizes (bytes, including the allocator flags word).
const (
	InodeSize     = 128
	DirBlockSize  = 4096
	FileEntrySize = 64
	ExtentSize    = 256
	BlobSize      = 512
)

// BlockSize is the data block size.
const BlockSize = 4096

// Superblock layout (block 0 of the device).
const (
	sbMagicOff     = 0
	sbVersionOff   = 8
	sbSizeOff      = 16
	sbBlockSizeOff = 24
	sbCleanOff     = 32 // 1 = cleanly unmounted
	sbRootInodeOff = 40
	sbEpochOff     = 48
	sbClassHeadOff = 64 // numClasses chain-head pointers, 8 bytes each

	sbMagic   = 0x53494d5552474831 // "SIMURGH1"
	sbVersion = 1
)

// Inode layout relative to the object start. The paper removes inode
// numbers: an inode is identified by its persistent pointer.
const (
	inoFlagsOff  = 0 // allocator valid/dirty word
	inoModeOff   = 8
	inoUIDOff    = 12
	inoGIDOff    = 16
	inoNlinkOff  = 20
	inoSizeOff   = 24
	inoAtimeOff  = 32
	inoMtimeOff  = 40
	inoCtimeOff  = 48
	inoDataOff   = 56 // dir: first DirBlock; symlink: Blob; file: first Extent
	inoBlocksOff = 64 // allocated data blocks
	// file: one more than the offset from which it reads zero up to its
	// size (0: none; see inoZeroFrom)
	inoZeroFromOff = 72
	inoLockOff     = 80 // file: the reader/writer lock word (see lockFile)
)

// Directory hash-block layout (§4.3, Figure 4). Each block is a fixed array
// of lines; line i of the whole directory is the union of row i across the
// chain of blocks. The first block additionally carries the per-line busy
// bits and the single per-directory log entry for cross-directory renames.
const (
	dirFlagsOff    = 0  // allocator word
	dirNextOff     = 8  // next block in chain
	dirBusyOff     = 16 // busy bit per line (first block only)
	dirMetaOff     = 24 // bit0: rename log dirty (first block only)
	dirLogOldOff   = 32 // cross-dir rename log: old file entry
	dirLogNewOff   = 40 // cross-dir rename log: shadow file entry
	dirLogDstOff   = 48 // cross-dir rename log: destination dir first block
	dirSlotsOff    = 64
	dirLogDirtyBit = 1 << 0

	// NLines is the number of hash lines per directory.
	NLines = 64
	// SlotsPerLine is how many entry slots one block contributes to a line.
	SlotsPerLine = 7
)

// File-entry layout. Entries of at most shortNameLen bytes store the name
// inline; longer names live in a Blob object referenced instead.
const (
	feFlagsOff = 0
	feInodeOff = 8
	feHashOff  = 16 // u32 name hash
	feNlenOff  = 20 // u16 name length
	feBitsOff  = 22 // u16: bit0 long name (blob), bit1 symlink
	feNameOff  = 24 // inline name bytes, or a Blob pointer for long names

	shortNameLen = FileEntrySize - feNameOff // 40

	feBitLongName = 1 << 0
	feBitSymlink  = 1 << 1
)

// Extent-chain block layout: a chain of fixed arrays of (startBlock, n)
// runs mapping a file's logical blocks in order.
const (
	extFlagsOff   = 0
	extNextOff    = 8
	extCountOff   = 16
	extEntriesOff = 24
	extMaxEntries = (ExtentSize - extEntriesOff) / 16 // 14
)

// Blob layout: flags, length, then payload (long names, symlink targets).
const (
	blobFlagsOff = 0
	blobLenOff   = 8
	blobDataOff  = 16
	blobCap      = BlobSize - blobDataOff
)

// fnv32 hashes a file name (FNV-1a).
func fnv32(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h
}

// lineOf maps a name hash to its directory line.
func lineOf(hash uint32) int { return int(hash % NLines) }

// slotOff returns the device offset of slot s of line within block b.
func slotOff(b pmem.Ptr, line, s int) uint64 {
	return uint64(b) + dirSlotsOff + uint64(line*SlotsPerLine+s)*8
}
