package server

import (
	"io"
	"math/bits"
	"sync/atomic"

	"simurgh/internal/export"
	"simurgh/internal/obs"
)

// batchBuckets is the number of power-of-two batch-size buckets: bucket i
// holds batches of (2^(i-1), 2^i] ops, bucket 0 holds size-1 batches, and
// the last bucket absorbs everything up to wire.MaxBatch.
const batchBuckets = 13

// latHist is an atomically recorded latency histogram sharing the obs
// bucket layout, so the exported series line up with the file system's own
// op histograms.
type latHist struct {
	buckets [obs.NumBuckets]atomic.Uint64
	sumNs   atomic.Uint64
}

func (h *latHist) observe(ns uint64) {
	h.buckets[obs.BucketOf(ns)].Add(1)
	h.sumNs.Add(ns)
}

// metrics is the server's own counter set, one instance per Server. The
// per-op file-system counters live in the volume's obs.Registry (the
// server's execution path runs through the instrumented fsapi client); these
// counters cover what only the network layer can see: sessions, frames,
// batching, queueing, and wire traffic. Each one has a reader (see the
// inventory in internal/export's tests).
type metrics struct {
	sessions     atomic.Uint64
	requests     atomic.Uint64
	requestNs    latHist
	quorumWaitNs latHist
	batchSize    [batchBuckets]atomic.Uint64
	batchOps     atomic.Uint64 // operations received in batch frames
	framesRead   atomic.Uint64
	bytesRead    atomic.Uint64
}

// observeBatch records one received batch of n operations, whether or not
// it is then admitted and answered.
func (m *metrics) observeBatch(n int) {
	b := bits.Len(uint(n) - 1) // 1→0, 2→1, 3..4→2, ...
	if n <= 0 {
		b = 0
	}
	if b >= batchBuckets {
		b = batchBuckets - 1
	}
	m.batchSize[b].Add(1)
	m.batchOps.Add(uint64(n))
}

// loadAll reads a bucket array into plain counts.
func loadAll(buckets []atomic.Uint64) []uint64 {
	out := make([]uint64, len(buckets))
	for i := range buckets {
		out[i] = buckets[i].Load()
	}
	return out
}

// WriteMetrics renders the server's counters in the Prometheus text
// exposition format as simurgh_server_* and simurgh_wire_* series. It is an
// export.Extra: hand it to export.Serve to append these series to the
// volume's /metrics endpoint.
func (s *Server) WriteMetrics(w io.Writer) {
	m := &s.m
	export.WriteScalar(w, "simurgh_server_sessions_total", "counter", "Successful attach handshakes.", m.sessions.Load())
	export.WriteScalar(w, "simurgh_server_requests_total", "counter",
		"Requests of admitted batches answered, including Moved and retired-op answers that execute nothing.", m.requests.Load())
	export.WriteHeader(w, "simurgh_server_request_ns", "histogram", "Per-request server-side latency (queue wait + execution).")
	export.WriteHistogram(w, "simurgh_server_request_ns", "", loadAll(m.requestNs.buckets[:]), obs.BucketUpperNs, m.requestNs.sumNs.Load())
	export.WriteHeader(w, "simurgh_server_quorum_wait_ns", "histogram", "Time batches spent blocked in WaitQuorum before their replies flushed.")
	export.WriteHistogram(w, "simurgh_server_quorum_wait_ns", "", loadAll(m.quorumWaitNs.buckets[:]), obs.BucketUpperNs, m.quorumWaitNs.sumNs.Load())

	sizes := loadAll(m.batchSize[:])
	var batches uint64
	for _, n := range sizes {
		batches += n
	}
	export.WriteScalar(w, "simurgh_wire_batches_total", "counter", "Batch frames received.", batches)
	export.WriteHeader(w, "simurgh_wire_batch_size", "histogram", "Operations per received batch frame.")
	export.WriteHistogram(w, "simurgh_wire_batch_size", "", sizes, func(i int) uint64 { return 1 << i }, m.batchOps.Load())
	export.WriteScalar(w, "simurgh_wire_frames_read_total", "counter", "Frames read from clients.", m.framesRead.Load())
	export.WriteScalar(w, "simurgh_wire_bytes_read_total", "counter", "Bytes read from clients.", m.bytesRead.Load())
}

// countingReader wraps a connection's read side, attributing raw byte
// traffic to the server metrics.
type countingReader struct {
	inner io.Reader
	m     *metrics
}

func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.inner.Read(p)
	if n > 0 {
		c.m.bytesRead.Add(uint64(n))
	}
	return n, err
}
