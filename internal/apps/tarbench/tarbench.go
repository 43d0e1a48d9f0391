// Package tarbench reproduces the paper's tar benchmark (Fig 11): packing a
// Linux-source-like tree into one archive inside the file system, and
// unpacking it back out. Pack stresses path resolution plus large
// sequential writes; unpack stresses create/write plus the per-file
// attribute syscalls (chmod/utimes) that the paper notes make kernel file
// systems slow. No fsync is issued, as in the paper.
package tarbench

import (
	"archive/tar"
	"fmt"
	"io"
	"time"

	"simurgh/internal/corpus"
	"simurgh/internal/fsapi"
)

// Result reports what one pack or unpack pass moved.
type Result struct {
	Files uint64
	Bytes uint64
}

// fdWriter adapts an fsapi descriptor to io.Writer.
type fdWriter struct {
	c  fsapi.Client
	fd fsapi.FD
}

func (w fdWriter) Write(p []byte) (int, error) { return w.c.Write(w.fd, p) }

// fdReader adapts an fsapi descriptor to io.Reader.
type fdReader struct {
	c  fsapi.Client
	fd fsapi.FD
}

func (r fdReader) Read(p []byte) (int, error) { return r.c.Read(r.fd, p) }

// Pack archives the tree at /src (a corpus) into /archive.tar through c.
func Pack(c fsapi.Client) (Result, error) {
	var res Result
	afd, err := c.Open("/archive.tar", fsapi.OCreate|fsapi.OWronly|fsapi.OTrunc|fsapi.OAppend, 0o644)
	if err != nil {
		return res, err
	}
	tw := tar.NewWriter(fdWriter{c, afd})
	buf := make([]byte, 256<<10)
	err = corpus.Walk(c, "/src", func(path string, st fsapi.Stat) error {
		hdr := &tar.Header{
			Name: path[1:], Mode: int64(st.Mode & fsapi.ModePermMask),
			Size:    int64(st.Size),
			ModTime: time.Unix(0, st.Mtime),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		fd, err := c.Open(path, fsapi.ORdonly, 0)
		if err != nil {
			return err
		}
		defer c.Close(fd)
		remaining := st.Size
		for remaining > 0 {
			n, err := c.Read(fd, buf)
			if n == 0 || err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			if _, err := tw.Write(buf[:n]); err != nil {
				return err
			}
			remaining -= uint64(n)
			res.Bytes += uint64(n)
		}
		res.Files++
		return nil
	})
	if err != nil {
		return res, err
	}
	if err := tw.Close(); err != nil {
		return res, err
	}
	c.Close(afd)
	return res, nil
}

// UndoPack removes what Pack wrote, the state a pack starts from.
func UndoPack(c fsapi.Client) error { return c.Unlink("/archive.tar") }

// Unpack extracts /archive.tar into /unpacked through c, issuing the same
// per-file attribute updates (chmod + utimes) a real tar does.
func Unpack(c fsapi.Client) (Result, error) {
	var res Result
	if err := c.Mkdir("/unpacked", 0o755); err != nil && err != fsapi.ErrExist {
		return res, err
	}
	afd, err := c.Open("/archive.tar", fsapi.ORdonly, 0)
	if err != nil {
		return res, err
	}
	defer c.Close(afd)
	tr := tar.NewReader(fdReader{c, afd})
	buf := make([]byte, 256<<10)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return res, err
		}
		path := "/unpacked/" + hdr.Name
		if err := mkdirs(c, path); err != nil {
			return res, err
		}
		fd, err := c.Create(path, uint32(hdr.Mode)&fsapi.ModePermMask)
		if err != nil {
			return res, err
		}
		for {
			n, err := tr.Read(buf)
			if n > 0 {
				if _, werr := c.Write(fd, buf[:n]); werr != nil {
					c.Close(fd)
					return res, werr
				}
				res.Bytes += uint64(n)
			}
			if err == io.EOF {
				break
			}
			if err != nil {
				c.Close(fd)
				return res, err
			}
		}
		c.Close(fd)
		// tar restores mode and times per file: extra metadata syscalls.
		if err := c.Chmod(path, uint32(hdr.Mode)&fsapi.ModePermMask); err != nil {
			return res, err
		}
		if err := c.Utimes(path, hdr.ModTime.UnixNano(), hdr.ModTime.UnixNano()); err != nil {
			return res, err
		}
		res.Files++
	}
	return res, nil
}

// UndoUnpack removes what Unpack wrote, the state an unpack starts from.
func UndoUnpack(c fsapi.Client) error { return fsapi.RemoveAll(c, "/unpacked") }

// mkdirs creates all parent directories of path.
func mkdirs(c fsapi.Client, path string) error {
	comps, err := fsapi.SplitPath(path)
	if err != nil {
		return err
	}
	cur := ""
	for _, comp := range comps[:len(comps)-1] {
		cur += "/" + comp
		if err := c.Mkdir(cur, 0o755); err != nil && err != fsapi.ErrExist {
			return err
		}
	}
	return nil
}

// Verify compares the unpacked tree against the source (test support).
func Verify(c fsapi.Client) error {
	var srcFiles, dstFiles uint64
	var srcBytes, dstBytes uint64
	if err := corpus.Walk(c, "/src", func(path string, st fsapi.Stat) error {
		srcFiles++
		srcBytes += st.Size
		return nil
	}); err != nil {
		return err
	}
	if err := corpus.Walk(c, "/unpacked/src", func(path string, st fsapi.Stat) error {
		dstFiles++
		dstBytes += st.Size
		return nil
	}); err != nil {
		return err
	}
	if srcFiles != dstFiles || srcBytes != dstBytes {
		return fmt.Errorf("tar round trip mismatch: src %d files/%d bytes, dst %d files/%d bytes",
			srcFiles, srcBytes, dstFiles, dstBytes)
	}
	return nil
}
