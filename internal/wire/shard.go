package wire

// Sharding frame payloads. The shard map itself (internal/shard) has its own
// codec; this file defines only the thin wire envelopes that move it around.
// The shard claim that lets a server fence attaches is part of the attach
// handshake (AttachClaim).

// Moved is the payload of a KindMoved frame (and the structured detail
// behind a CodeMoved response), the one refusal of an attach: the contacted
// node will not serve the client, and Addr names the node to try. Shard
// echoes the claimed shard ID. The epoch says why:
//   - Epoch ≥ 1 is a map statement: under that map epoch the shard lives
//     elsewhere, and a client holding an older map must refetch. Addr is
//     one address of the current owner group (empty if the node only knows
//     the shard left).
//   - Epoch 0 names no map: the shard's group is served here, but this node
//     is not its primary. Addr is the primary (empty if none is known).
type Moved struct {
	Shard uint32
	Epoch uint64
	Addr  string
}

// AppendMoved encodes a Moved payload onto dst.
func AppendMoved(dst []byte, m *Moved) []byte {
	dst = appendU32(dst, m.Shard)
	dst = appendU64(dst, m.Epoch)
	return appendStr(dst, m.Addr)
}

// ParseMoved decodes a KindMoved payload.
func ParseMoved(payload []byte) (Moved, error) {
	rd := reader{b: payload}
	m := Moved{Shard: rd.u32(), Epoch: rd.u64(), Addr: rd.str(MaxPath)}
	if rd.err != nil {
		return Moved{}, rd.err
	}
	return m, nil
}

// AppendMapGet encodes a KindMapGet payload: the epoch the client already
// holds (zero for none). A node answers KindMapOK with the full encoded map,
// or an empty KindMapOK payload when haveEpoch is already current — the
// cheap "am I stale?" probe.
func AppendMapGet(dst []byte, haveEpoch uint64) []byte {
	return appendU64(dst, haveEpoch)
}

// ParseMapGet decodes a KindMapGet payload.
func ParseMapGet(payload []byte) (uint64, error) {
	rd := reader{b: payload}
	e := rd.u64()
	if rd.err != nil {
		return 0, rd.err
	}
	return e, nil
}
