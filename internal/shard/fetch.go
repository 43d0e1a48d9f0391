package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"simurgh/internal/wire"
)

// defaultRPCTimeout bounds one control-plane exchange when the caller
// passes zero. Map installs on a retiring owner include the drain, so
// pushes get a generous bound.
const defaultRPCTimeout = 30 * time.Second

// roundTrip dials addr, sends one frame, and returns the first reply frame
// (payload copied out of the reader's pooled buffer).
func roundTrip(addr string, timeout time.Duration, kind wire.Kind, payload []byte) (wire.Kind, []byte, error) {
	if timeout <= 0 {
		timeout = defaultRPCTimeout
	}
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return 0, nil, err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(timeout))
	if err := wire.WriteFrame(conn, kind, payload); err != nil {
		return 0, nil, err
	}
	fr := wire.NewFrameReader(conn)
	defer fr.Release()
	k, pl, err := fr.Next()
	if err != nil {
		return 0, nil, err
	}
	return k, append([]byte(nil), pl...), nil
}

// FetchMap asks the node at addr for its shard map. A nil map with a nil
// error means the node's map is still at haveEpoch (pass zero to always get
// the full map).
func FetchMap(addr string, haveEpoch uint64, timeout time.Duration) (*Map, error) {
	kind, payload, err := roundTrip(addr, timeout, wire.KindMapGet, wire.AppendMapGet(nil, haveEpoch))
	if err != nil {
		return nil, fmt.Errorf("shard: fetching map from %s: %w", addr, err)
	}
	switch kind {
	case wire.KindMapOK:
		if len(payload) == 0 {
			return nil, nil
		}
		return Decode(payload)
	case wire.KindErr:
		return nil, fmt.Errorf("shard: fetching map from %s: %w", addr, wire.ParseErrFrame(payload))
	default:
		return nil, fmt.Errorf("%w: unexpected kind %d fetching map", wire.ErrBadMessage, kind)
	}
}

// FetchMapAny tries each seed in turn and returns the first map fetched,
// joining the per-seed errors on total failure.
func FetchMapAny(seeds []string, timeout time.Duration) (*Map, error) {
	var errs []error
	for _, addr := range seeds {
		m, err := FetchMap(addr, 0, timeout)
		if err == nil && m != nil {
			return m, nil
		}
		if err == nil {
			err = errors.New("empty map reply")
		}
		errs = append(errs, fmt.Errorf("%s: %w", addr, err))
	}
	if len(errs) == 0 {
		return nil, errors.New("shard: no seed addresses")
	}
	return nil, errors.Join(errs...)
}

// PushMap installs an encoded map on the node at addr (KindMapSet). On a
// node losing shards the reply arrives only after the node has fenced and
// drained, so the call doubles as the migration's handoff barrier.
func PushMap(addr string, payload []byte, timeout time.Duration) error {
	kind, reply, err := roundTrip(addr, timeout, wire.KindMapSet, payload)
	if err != nil {
		return fmt.Errorf("shard: pushing map to %s: %w", addr, err)
	}
	switch kind {
	case wire.KindMapOK:
		return nil
	case wire.KindErr:
		return fmt.Errorf("shard: pushing map to %s: %w", addr, wire.ParseErrFrame(reply))
	default:
		return fmt.Errorf("%w: unexpected kind %d pushing map", wire.ErrBadMessage, kind)
	}
}

// PromoteNode sends the admin promote frame to addr (the admin side of the
// replication protocol) and returns the new replication epoch.
func PromoteNode(addr string, timeout time.Duration) (uint64, error) {
	kind, payload, err := roundTrip(addr, timeout, wire.KindPromote, nil)
	if err != nil {
		return 0, fmt.Errorf("shard: promoting %s: %w", addr, err)
	}
	switch kind {
	case wire.KindPromoteOK:
		if len(payload) < 8 {
			return 0, fmt.Errorf("%w: short promote reply", wire.ErrTruncated)
		}
		return binary.LittleEndian.Uint64(payload), nil
	case wire.KindErr:
		return 0, fmt.Errorf("shard: promoting %s: %w", addr, wire.ParseErrFrame(payload))
	default:
		return 0, fmt.Errorf("%w: unexpected kind %d promoting", wire.ErrBadMessage, kind)
	}
}
