package wire

import (
	"bytes"
	"reflect"
	"testing"

	"simurgh/internal/fsapi"
)

// FuzzWireDecode feeds arbitrary bytes to every decoder. Whatever the
// input: no panic, no allocation larger than the input itself (every
// variable-length field is validated against the remaining bytes before
// allocating), and anything that decodes cleanly must re-encode and decode
// back to the same value (round-trip stability for all frame types).
func FuzzWireDecode(f *testing.F) {
	for _, r := range sampleRequests() {
		r := r
		f.Add(AppendRequest(nil, &r))
	}
	for _, r := range sampleResponses() {
		r := r
		f.Add(AppendResponse(nil, &r))
	}
	f.Add(AppendAttach(nil, fsapi.Cred{UID: 1000, GID: 1000}, 7, nil))
	f.Add(AppendAttach(nil, fsapi.Cred{UID: 1000, GID: 1000}, 7, &AttachClaim{Shard: 3, Epoch: 9}))
	f.Add(AppendErrFrame(nil, ErrOverload))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Requests: a payload that decodes as a batch re-encodes to one that
		// decodes to the same requests.
		if reqs, err := DecodeBatchInto(nil, data); err == nil {
			var re []byte
			for i := range reqs {
				req := &reqs[i]
				if len(req.Data) > len(data) || len(req.Path)+len(req.Path2) > len(data) {
					t.Fatalf("decoded request larger than input: %+v", req)
				}
				re = AppendRequest(re, req)
			}
			again, err := DecodeBatchInto(nil, re)
			if err != nil {
				t.Fatalf("re-decode of re-encoded requests failed: %v", err)
			}
			if len(again) != len(reqs) {
				t.Fatalf("re-encoded %d requests decode as %d", len(reqs), len(again))
			}
			for i := range reqs {
				req, again := &reqs[i], &again[i]
				if again.ID != req.ID || again.Op != req.Op || again.Path != req.Path ||
					again.Path2 != req.Path2 || !bytes.Equal(again.Data, req.Data) ||
					again.Off != req.Off || again.Off2 != req.Off2 ||
					again.FD != req.FD || again.Flags != req.Flags ||
					again.Perm != req.Perm || again.Size != req.Size {
					t.Fatalf("request round trip diverged:\n in %+v\nout %+v", req, again)
				}
			}
		}
		// Responses.
		if resp, _, err := DecodeResponseInto(data, nil); err == nil {
			if len(resp.Data) > len(data) || len(resp.Dir) > len(data) {
				t.Fatalf("decoded response larger than input: %+v", resp)
			}
			re := AppendResponse(nil, &resp)
			again, rest2, err := DecodeResponseInto(re, nil)
			if err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			if len(rest2) != 0 {
				t.Fatalf("re-encoded response left %d trailing bytes", len(rest2))
			}
			if again.ID != resp.ID || again.Op != resp.Op || again.Code != resp.Code ||
				again.Str != resp.Str || !bytes.Equal(again.Data, resp.Data) ||
				again.Stat != resp.Stat || len(again.Dir) != len(resp.Dir) {
				t.Fatalf("response round trip diverged:\n in %+v\nout %+v", resp, again)
			}
		}
		// Handshake and error frames.
		if cred, id, claim, claimed, err := ParseAttachClaim(data); err == nil {
			var in *AttachClaim
			if claimed {
				in = &claim
			}
			back := AppendAttach(nil, cred, id, in)
			got, gotID, gotClaim, gotClaimed, err := ParseAttachClaim(back)
			if err != nil || got != cred || gotID != id || gotClaimed != claimed || gotClaim != claim {
				t.Fatalf("attach round trip: (%+v, %d, %+v, %v, %v)", got, gotID, gotClaim, gotClaimed, err)
			}
		}
		_ = ParseErrFrame(data)
	})
}

// FuzzResponseDecodeModes decodes arbitrary bytes as a reply payload —
// response after response, as the client's reader does — in each of the
// decoder's placements for read data: a fresh copy, a copy into a
// caller-provided destination, and a view of the input. Whatever the input,
// the three agree on every Response value, on the remainder and on the
// error; a view is capacity-clipped and lies inside the input while a copy
// never does; and every truncation of a response that decoded is an error in
// every mode, never a panic.
func FuzzResponseDecodeModes(f *testing.F) {
	var all []byte
	for _, r := range sampleResponses() {
		r := r
		f.Add(AppendResponse(nil, &r))
		all = AppendResponse(all, &r)
	}
	f.Add(all)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A write's reply carries the offset it left the descriptor at, eight
	// bytes more than a pwrite's: seed it at both extremes of the offset and
	// in the shorter form an older server would have sent.
	for _, off := range []int64{0, -1, 1<<62 + 4096} {
		w := AppendResponse(nil, &Response{ID: 6, Op: OpWrite, N: 4096, Off: off})
		f.Add(w)
		f.Add(w[:len(w)-8])
		f.Add(append(w, all...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		inside := func(p []byte) bool {
			if len(p) == 0 || len(data) == 0 {
				return false
			}
			for i := range data {
				if &data[i] == &p[0] {
					return true
				}
			}
			return false
		}
		errText := func(err error) string {
			if err == nil {
				return ""
			}
			return err.Error()
		}
		dst := make([]byte, 0, 8) // small: some payloads fit it, most do not
		for rest := data; len(rest) > 0; {
			fresh, restF, errF := DecodeResponseInto(rest, nil)
			into, restI, errI := DecodeResponseInto(rest, dst)
			view, restV, errV := DecodeResponseAlias(rest)
			if errText(errF) != errText(errI) || errText(errF) != errText(errV) {
				t.Fatalf("errors differ: fresh %v, into %v, view %v", errF, errI, errV)
			}
			if !reflect.DeepEqual(fresh, into) || !reflect.DeepEqual(fresh, view) {
				t.Fatalf("responses differ:\nfresh %+v\n into %+v\n view %+v", fresh, into, view)
			}
			if !bytes.Equal(restF, restI) || !bytes.Equal(restF, restV) || (restF == nil) != (restV == nil) {
				t.Fatalf("remainders differ: %d / %d / %d bytes", len(restF), len(restI), len(restV))
			}
			if errF != nil {
				return
			}
			if inside(fresh.Data) || inside(into.Data) {
				t.Fatal("copied Data aliases the input")
			}
			if len(view.Data) > 0 && (!inside(view.Data) || cap(view.Data) != len(view.Data)) {
				t.Fatalf("view Data: inside=%v len=%d cap=%d", inside(view.Data), len(view.Data), cap(view.Data))
			}
			used := len(rest) - len(restF)
			for cut := 0; cut < used; cut += 1 + used/64 {
				_, _, errF := DecodeResponseInto(rest[:cut], nil)
				_, _, errV := DecodeResponseAlias(rest[:cut])
				if errF == nil || errText(errF) != errText(errV) {
					t.Fatalf("truncated to %d of %d bytes: fresh %v, view %v", cut, used, errF, errV)
				}
			}
			rest = restF
		}
	})
}
