package wire

import (
	"errors"
	"io"

	"simurgh/internal/fsapi"
)

// Server-side conditions that have no fsapi equivalent but must round-trip
// the wire like the file-system sentinels.
var (
	// ErrOverload reports that the server's connection limit refused a new
	// connection; the client may retry.
	ErrOverload = errors.New("wire: server overloaded")
	// ErrShutdown reports that the server is draining and no longer
	// accepts new connections.
	ErrShutdown = errors.New("wire: server shutting down")
	// ErrNotPrimary reports that the contacted server is a replication
	// backup (or candidate) and cannot serve the request; an attach is
	// answered with an epoch-0 Moved naming the primary instead.
	ErrNotPrimary = errors.New("wire: not the primary")
	// ErrMoved reports that the shard owning the request's path is no
	// longer served by the contacted node; the client must refetch the
	// shard map and retry against the current owner.
	ErrMoved = errors.New("wire: shard moved")
)

// ErrCode is the wire form of an error. Every fsapi sentinel has a code so
// errors.Is works across the network; CodeOther carries anything else as an
// opaque message.
type ErrCode uint8

const (
	CodeOK ErrCode = iota
	CodeNotExist
	CodeExist
	CodeNotDir
	CodeIsDir
	CodeNotEmpty
	CodePerm
	CodeBadFD
	CodeNameTooLong
	CodeNoSpace
	CodeInval
	CodeLoop
	CodeCrossDir
	CodeReadOnly
	CodeWriteOnly
	CodeOverload
	CodeShutdown
	CodeNotPrimary
	CodeMoved
	CodeEOF
	CodeOther
	// NumErrCodes bounds the ErrCode enum.
	NumErrCodes
)

// sentinels maps each code to the canonical error it round-trips.
// CodeOther maps to nil: its errors reconstruct as plain RemoteErrors.
var sentinels = [NumErrCodes]error{
	CodeNotExist:    fsapi.ErrNotExist,
	CodeExist:       fsapi.ErrExist,
	CodeNotDir:      fsapi.ErrNotDir,
	CodeIsDir:       fsapi.ErrIsDir,
	CodeNotEmpty:    fsapi.ErrNotEmpty,
	CodePerm:        fsapi.ErrPerm,
	CodeBadFD:       fsapi.ErrBadFD,
	CodeNameTooLong: fsapi.ErrNameTooLong,
	CodeNoSpace:     fsapi.ErrNoSpace,
	CodeInval:       fsapi.ErrInval,
	CodeLoop:        fsapi.ErrLoop,
	CodeCrossDir:    fsapi.ErrCrossDir,
	CodeReadOnly:    fsapi.ErrReadOnly,
	CodeWriteOnly:   fsapi.ErrWriteOnly,
	CodeOverload:    ErrOverload,
	CodeShutdown:    ErrShutdown,
	CodeNotPrimary:  ErrNotPrimary,
	CodeMoved:       ErrMoved,
	CodeEOF:         io.EOF,
}

// CodeOf maps an error to its wire code (CodeOK for nil).
func CodeOf(err error) ErrCode {
	if err == nil {
		return CodeOK
	}
	for code := CodeNotExist; code < CodeOther; code++ {
		if errors.Is(err, sentinels[code]) {
			return code
		}
	}
	return CodeOther
}

// Sentinel returns the canonical error for c, or nil if c has none
// (CodeOK, CodeOther, out of range).
func (c ErrCode) Sentinel() error {
	if c < NumErrCodes {
		return sentinels[c]
	}
	return nil
}

// Wrap reconstructs the error a response carried: the canonical sentinel
// when the server sent no extra detail, otherwise a RemoteError that keeps
// the server's message while still matching the sentinel via errors.Is.
func (c ErrCode) Wrap(msg string) error {
	if c == CodeOK {
		return nil
	}
	s := c.Sentinel()
	if msg == "" || (s != nil && msg == s.Error()) {
		if s != nil {
			return s
		}
		return &RemoteError{Code: c, Msg: "wire: remote error"}
	}
	return &RemoteError{Code: c, Msg: msg}
}

// MsgFor returns the message a response should carry for err: empty when
// the code's canonical text already says it all (the common case, saving
// bytes), the full text otherwise.
func MsgFor(code ErrCode, err error) string {
	if err == nil {
		return ""
	}
	if s := code.Sentinel(); s != nil && err.Error() == s.Error() {
		return ""
	}
	return err.Error()
}

// RemoteError is a file-system error decoded from the wire with a
// server-side detail message. It unwraps to the code's canonical sentinel,
// so errors.Is(err, fsapi.ErrPerm) works across the network.
type RemoteError struct {
	Code ErrCode
	Msg  string
}

// Error returns the server's message.
func (e *RemoteError) Error() string { return e.Msg }

// Unwrap exposes the canonical sentinel for errors.Is.
func (e *RemoteError) Unwrap() error { return e.Code.Sentinel() }
