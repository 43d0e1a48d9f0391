// Package gitbench reproduces the paper's git benchmark (Fig 12): add,
// commit, and reset --hard over a Linux-source-like tree, implemented as a
// minimal content-addressable object store with the same file-system access
// pattern as git: blob objects written under objects/xx/..., an index file,
// tree and commit objects, and a working-tree restore on reset. Commit is
// metadata heavy (it stats every tracked file), which is where the paper
// sees the largest file-system differences.
package gitbench

import (
	"bytes"
	"compress/zlib"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
)

// Repo is an open repository inside a file system under test. Every
// operation takes the client it runs through.
type Repo struct {
	dir  string            // repo root, e.g. "/repo"
	work string            // working tree root, e.g. "/src"
	idx  map[string]string // path -> blob hash
	made []string          // what the last operation created, in order, for Undo
	zw   *zlib.Writer      // reused: a new one zeroes ~0.5 MB per object
}

// Result reports what one git operation did: the files it added, stated or
// restored, and the object bytes it wrote (add, commit) or restored (reset).
type Result struct {
	Files uint64
	Bytes uint64
}

// Init creates the repository layout through c.
func Init(c fsapi.Client, repoDir, workDir string) (*Repo, error) {
	zw, _ := zlib.NewWriterLevel(nil, zlib.BestSpeed)
	r := &Repo{dir: repoDir, work: workDir, idx: map[string]string{}, zw: zw}
	for _, d := range []string{repoDir, repoDir + "/objects", repoDir + "/refs", repoDir + "/refs/heads"} {
		if err := c.Mkdir(d, 0o755); err != nil && err != fsapi.ErrExist {
			return nil, err
		}
	}
	return r, nil
}

// Undo removes, through c, what the last Add, Commit or Reset created: the
// state that operation started from, so that it can run again.
func (r *Repo) Undo(c fsapi.Client) error {
	for i := len(r.made) - 1; i >= 0; i-- {
		if err := fsapi.RemoveAll(c, r.made[i]); err != nil {
			return err
		}
	}
	r.made = r.made[:0]
	return nil
}

func hashOf(data []byte) string {
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:20])
}

// writeObject stores data under objects/xx/rest, compressed at git's
// loose-object level (core.looseCompression defaults to 1, best speed),
// and returns how many bytes of data it stored: none if the object is
// present.
func (r *Repo) writeObject(c fsapi.Client, hash string, data []byte) (uint64, error) {
	dir := r.dir + "/objects/" + hash[:2]
	path := dir + "/" + hash[2:]
	if _, err := c.Stat(path); err == nil {
		return 0, nil // object already present
	}
	switch err := c.Mkdir(dir, 0o755); err {
	case nil:
		r.made = append(r.made, dir)
	case fsapi.ErrExist:
	default:
		return 0, err
	}
	var buf bytes.Buffer
	r.zw.Reset(&buf)
	r.zw.Write(data)
	r.zw.Close()
	fd, err := c.Create(path, 0o444)
	if err != nil {
		return 0, err
	}
	defer c.Close(fd)
	r.made = append(r.made, path)
	_, err = c.Write(fd, buf.Bytes())
	return uint64(len(data)), err
}

// readObject loads and decompresses an object.
func (r *Repo) readObject(c fsapi.Client, hash string) ([]byte, error) {
	path := r.dir + "/objects/" + hash[:2] + "/" + hash[2:]
	fd, err := c.Open(path, fsapi.ORdonly, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close(fd)
	var raw bytes.Buffer
	buf := make([]byte, 64<<10)
	for {
		n, err := c.Read(fd, buf)
		if n > 0 {
			raw.Write(buf[:n])
		}
		if err != nil {
			break
		}
	}
	zr, err := zlib.NewReader(&raw)
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// Add hashes every file in the working tree, stores missing blobs, and
// rewrites the index.
func (r *Repo) Add(c fsapi.Client) (Result, error) {
	var res Result
	r.made = r.made[:0]
	err := corpus.Walk(c, r.work, func(path string, st fsapi.Stat) error {
		fd, err := c.Open(path, fsapi.ORdonly, 0)
		if err != nil {
			return err
		}
		data := make([]byte, st.Size)
		n, _ := c.Pread(fd, data, 0)
		c.Close(fd)
		data = data[:n]
		h := hashOf(data)
		wrote, err := r.writeObject(c, h, data)
		if err != nil {
			return err
		}
		r.idx[path] = h
		res.Files++
		res.Bytes += wrote
		return nil
	})
	if err != nil {
		return res, err
	}
	return res, r.writeIndex(c)
}

func (r *Repo) writeIndex(c fsapi.Client) error {
	paths := make([]string, 0, len(r.idx))
	for p := range r.idx {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	var sb strings.Builder
	for _, p := range paths {
		fmt.Fprintf(&sb, "%s %s\n", r.idx[p], p)
	}
	tmp := r.dir + "/index.tmp"
	fd, err := c.Create(tmp, 0o644)
	if err != nil {
		return err
	}
	if _, err := c.Write(fd, []byte(sb.String())); err != nil {
		c.Close(fd)
		return err
	}
	c.Close(fd)
	r.made = append(r.made, r.dir+"/index")
	return c.Rename(tmp, r.dir+"/index")
}

// Commit stats every tracked file (the metadata-heavy phase the paper
// highlights), builds tree objects bottom-up, writes the commit object, and
// updates the branch ref.
func (r *Repo) Commit(c fsapi.Client, msg string) (Result, error) {
	var res Result
	r.made = r.made[:0]
	// git retrieves the metadata of all files on commit.
	trees := map[string][]string{} // dir -> entry lines
	for path, h := range r.idx {
		st, err := c.Stat(path)
		if err != nil {
			return res, err
		}
		dir := parentOf(path)
		trees[dir] = append(trees[dir],
			fmt.Sprintf("blob %o %s %s %d", st.Mode&fsapi.ModePermMask, h, baseOf(path), st.Size))
		res.Files++
	}
	// Build tree objects strictly bottom-up by depth, so every directory's
	// entry list is complete (all child trees hashed) before it is hashed.
	all := map[string]bool{r.work: true}
	maxDepth := 0
	for d := range trees {
		for cur := d; ; cur = parentOf(cur) {
			all[cur] = true
			if dd := depth(cur); dd > maxDepth {
				maxDepth = dd
			}
			if cur == r.work || cur == "/" {
				break
			}
		}
	}
	treeHash := map[string]string{}
	for dd := maxDepth; dd >= 0; dd-- {
		var level []string
		for d := range all {
			if depth(d) == dd {
				level = append(level, d)
			}
		}
		sort.Strings(level)
		for _, d := range level {
			lines := trees[d]
			sort.Strings(lines)
			content := []byte(strings.Join(lines, "\n"))
			h := hashOf(content)
			wrote, err := r.writeObject(c, h, content)
			if err != nil {
				return res, err
			}
			res.Bytes += wrote
			treeHash[d] = h
			if d != r.work && d != "/" {
				trees[parentOf(d)] = append(trees[parentOf(d)],
					fmt.Sprintf("tree %s %s", h, baseOf(d)))
			}
		}
	}
	root := treeHash[r.work]
	// The commit's time is content, as in git, not a measurement.
	commit := fmt.Sprintf("tree %s\nmessage %s\ntime %d\n", root, msg, time.Now().UnixNano())
	ch := hashOf([]byte(commit))
	wrote, err := r.writeObject(c, ch, []byte(commit))
	if err != nil {
		return res, err
	}
	res.Bytes += wrote
	// Update the ref via write + rename, like git's lockfile protocol.
	tmp := r.dir + "/refs/heads/main.lock"
	fd, err := c.Create(tmp, 0o644)
	if err != nil {
		return res, err
	}
	c.Write(fd, []byte(ch+"\n"))
	c.Close(fd)
	r.made = append(r.made, r.dir+"/refs/heads/main")
	return res, c.Rename(tmp, r.dir+"/refs/heads/main")
}

// DeleteWorkTree removes all tracked files (the paper deletes all files
// between commit and reset).
func (r *Repo) DeleteWorkTree(c fsapi.Client) error {
	for path := range r.idx {
		if err := c.Unlink(path); err != nil && err != fsapi.ErrNotExist {
			return err
		}
	}
	return nil
}

// Reset restores the working tree from the index (reset --hard).
func (r *Repo) Reset(c fsapi.Client) (Result, error) {
	var res Result
	r.made = r.made[:0]
	for path, h := range r.idx {
		data, err := r.readObject(c, h)
		if err != nil {
			return res, err
		}
		fd, err := c.Create(path, 0o644)
		if err != nil {
			return res, err
		}
		r.made = append(r.made, path)
		if _, err := c.Write(fd, data); err != nil {
			c.Close(fd)
			return res, err
		}
		c.Close(fd)
		res.Files++
		res.Bytes += uint64(len(data))
	}
	return res, nil
}

func parentOf(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func baseOf(p string) string {
	i := strings.LastIndexByte(p, '/')
	return p[i+1:]
}

func depth(p string) int { return strings.Count(p, "/") }
