// Package fsapi defines the POSIX-like interface shared by Simurgh and the
// baseline file systems, so benchmarks and applications are written once and
// run against every implementation.
//
// The attachment model mirrors the paper: a FileSystem is the mounted
// volume; Attach corresponds to a process preloading the library (its
// effective uid/gid are fixed at that point and stored in the protected
// pages), and the returned Client carries that process's open-file table.
package fsapi

import (
	"errors"
	"fmt"
)

// Cred is the effective identity of an attached process.
type Cred struct {
	UID uint32
	GID uint32
}

// Root is the superuser credential (bypasses permission checks).
var Root = Cred{UID: 0, GID: 0}

// Mode bits (a subset of POSIX).
const (
	ModeTypeMask uint32 = 0o170000
	ModeRegular  uint32 = 0o100000
	ModeDir      uint32 = 0o040000
	ModeSymlink  uint32 = 0o120000
	ModePermMask uint32 = 0o777
)

// IsDir reports whether mode describes a directory.
func IsDir(mode uint32) bool { return mode&ModeTypeMask == ModeDir }

// IsSymlink reports whether mode describes a symbolic link.
func IsSymlink(mode uint32) bool { return mode&ModeTypeMask == ModeSymlink }

// IsRegular reports whether mode describes a regular file.
func IsRegular(mode uint32) bool { return mode&ModeTypeMask == ModeRegular }

// Open flags.
type OpenFlag uint32

const (
	ORdonly OpenFlag = 0
	OWronly OpenFlag = 1 << iota
	ORdwr
	OCreate
	OExcl
	OTrunc
	OAppend
)

// FD is a per-client file descriptor.
type FD int32

// Whence values for Seek.
const (
	SeekSet = 0
	SeekCur = 1
	SeekEnd = 2
)

// MaxNameLen is the maximum length of a single path component.
const MaxNameLen = 255

// Errors shared by all implementations.
var (
	ErrNotExist    = errors.New("fs: no such file or directory")
	ErrExist       = errors.New("fs: file exists")
	ErrNotDir      = errors.New("fs: not a directory")
	ErrIsDir       = errors.New("fs: is a directory")
	ErrNotEmpty    = errors.New("fs: directory not empty")
	ErrPerm        = errors.New("fs: permission denied")
	ErrBadFD       = errors.New("fs: bad file descriptor")
	ErrNameTooLong = errors.New("fs: name too long")
	ErrNoSpace     = errors.New("fs: no space left on device")
	ErrInval       = errors.New("fs: invalid argument")
	ErrLoop        = errors.New("fs: too many levels of symbolic links")
	ErrCrossDir    = errors.New("fs: invalid cross-directory operation")
	ErrReadOnly    = errors.New("fs: file not open for writing")
	ErrWriteOnly   = errors.New("fs: file not open for reading")
)

// Stat describes a file. Ino is the file system's stable identifier — for
// Simurgh it is the inode's persistent pointer (the paper removes inode
// numbers entirely and uses NVMM offsets).
type Stat struct {
	Ino   uint64
	Mode  uint32
	UID   uint32
	GID   uint32
	Nlink uint32
	Size  uint64
	Atime int64
	Mtime int64
	Ctime int64
}

// DirEntry is one directory listing entry.
type DirEntry struct {
	Name string
	Ino  uint64
	Mode uint32
}

// Client is a process's view of a mounted file system: its credentials plus
// its open-file table. Clients of the same FileSystem share all state below
// the open-file map, exactly like processes sharing NVMM.
//
// Implementations must be safe for concurrent use by multiple goroutines
// (the paper's multithreaded processes).
type Client interface {
	// Create creates a regular file and opens it for writing.
	Create(path string, perm uint32) (FD, error)
	// Open opens an existing file (or creates with OCreate).
	Open(path string, flags OpenFlag, perm uint32) (FD, error)
	// Close releases the descriptor.
	Close(fd FD) error
	// Read reads from the descriptor's current position.
	Read(fd FD, p []byte) (int, error)
	// Pread reads at an explicit offset without moving the position.
	Pread(fd FD, p []byte, off uint64) (int, error)
	// Write writes at the descriptor's current position (or EOF with OAppend).
	Write(fd FD, p []byte) (int, error)
	// Pwrite writes at an explicit offset without moving the position.
	Pwrite(fd FD, p []byte, off uint64) (int, error)
	// Seek repositions the descriptor.
	Seek(fd FD, off int64, whence int) (int64, error)
	// Fsync persists outstanding updates of the file.
	Fsync(fd FD) error
	// Ftruncate sets the file size.
	Ftruncate(fd FD, size uint64) error
	// Fallocate preallocates space for [0, size).
	Fallocate(fd FD, size uint64) error
	// Fstat stats an open descriptor.
	Fstat(fd FD) (Stat, error)

	// Stat resolves a path (following symlinks) and returns its attributes.
	Stat(path string) (Stat, error)
	// Lstat is Stat without following a final symlink.
	Lstat(path string) (Stat, error)
	// Mkdir creates a directory.
	Mkdir(path string, perm uint32) error
	// Rmdir removes an empty directory.
	Rmdir(path string) error
	// Unlink removes a file or symlink.
	Unlink(path string) error
	// Rename moves old to new (within or across directories).
	Rename(oldPath, newPath string) error
	// Symlink creates a symbolic link at linkPath pointing to target.
	Symlink(target, linkPath string) error
	// Link creates a hard link at newPath for oldPath's inode.
	Link(oldPath, newPath string) error
	// Readlink returns a symlink's target.
	Readlink(path string) (string, error)
	// ReadDir lists a directory.
	ReadDir(path string) ([]DirEntry, error)
	// Chmod updates permission bits.
	Chmod(path string, perm uint32) error
	// Utimes sets access/modification times (unix nanoseconds).
	Utimes(path string, atime, mtime int64) error

	// Detach releases the client (closes all open descriptors).
	Detach() error
}

// FileSystem is a mounted volume accepting process attachments.
type FileSystem interface {
	// Name identifies the implementation ("simurgh", "nova", ...).
	Name() string
	// Attach registers a process with the given credentials.
	Attach(cred Cred) (Client, error)
}

// NextComponent returns the first component of path at or after byte offset
// i and the offset just past it, skipping the slashes in front. name is empty
// when no component is left. It is the allocation-free way to walk a path
// that CheckPath reported plain.
func NextComponent(path string, i int) (name string, next int) {
	for i < len(path) && path[i] == '/' {
		i++
	}
	j := i
	for j < len(path) && path[j] != '/' {
		j++
	}
	return path[i:j], j
}

// CheckPath validates path as SplitPath does, without allocating, and
// reports whether it is plain: free of "." and ".." components, so that
// NextComponent yields exactly the components SplitPath would return.
func CheckPath(path string) (plain bool, err error) {
	plain = true
	for name, i := NextComponent(path, 0); name != ""; name, i = NextComponent(path, i) {
		switch {
		case name == "." || name == "..":
			plain = false
		case len(name) > MaxNameLen:
			return false, ErrNameTooLong
		}
	}
	return plain, nil
}

// SplitLast cuts a plain path in front of its final component: dir is
// everything before it, name the component itself (empty if path has none).
func SplitLast(path string) (dir, name string) {
	end := len(path)
	for end > 0 && path[end-1] == '/' {
		end--
	}
	start := end
	for start > 0 && path[start-1] != '/' {
		start--
	}
	return path[:start], path[start:end]
}

// SplitPath canonicalizes path into components, rejecting empty and
// overlong names. "." and ".." are resolved lexically ( ".." never escapes
// the root).
func SplitPath(path string) ([]string, error) {
	var comps []string
	for name, i := NextComponent(path, 0); name != ""; name, i = NextComponent(path, i) {
		switch name {
		case ".":
		case "..":
			if len(comps) > 0 {
				comps = comps[:len(comps)-1]
			}
		default:
			if len(name) > MaxNameLen {
				return nil, ErrNameTooLong
			}
			comps = append(comps, name)
		}
	}
	return comps, nil
}

// BaseDir splits path into its parent directory components and final name.
func BaseDir(path string) (dir []string, name string, err error) {
	comps, err := SplitPath(path)
	if err != nil {
		return nil, "", err
	}
	if len(comps) == 0 {
		return nil, "", ErrInval
	}
	return comps[:len(comps)-1], comps[len(comps)-1], nil
}

// JoinPath reassembles components into an absolute path.
func JoinPath(comps []string) string {
	if len(comps) == 0 {
		return "/"
	}
	n := 0
	for _, c := range comps {
		n += len(c) + 1
	}
	b := make([]byte, 0, n)
	for _, c := range comps {
		b = append(b, '/')
		b = append(b, c...)
	}
	return string(b)
}

// CheckPerm verifies that cred may access a file with the given owner and
// mode at the requested rwx level (4=r, 2=w, 1=x), applying the standard
// owner/group/other split. Root bypasses all checks.
func CheckPerm(cred Cred, uid, gid, mode uint32, want uint32) error {
	if cred.UID == 0 {
		return nil
	}
	var bits uint32
	switch {
	case cred.UID == uid:
		bits = (mode >> 6) & 7
	case cred.GID == gid:
		bits = (mode >> 3) & 7
	default:
		bits = mode & 7
	}
	if bits&want != want {
		return fmt.Errorf("%w (need %o, have %o)", ErrPerm, want, bits)
	}
	return nil
}

// AccessRead, AccessWrite, AccessExec are the want arguments to CheckPerm.
const (
	AccessRead  uint32 = 4
	AccessWrite uint32 = 2
	AccessExec  uint32 = 1
)
