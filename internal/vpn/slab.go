// Slab enclave crossings: the only shape data takes across the DataPlane.
//
// A slab packs a burst — or a lone packet, as a slab of one — into ONE
// contiguous, pooled buffer, so the boundary sees a single []byte in each
// direction and the steady-state path allocates nothing per packet.
//
// Request slab — a sequence of length-prefixed entries:
//
//	[4-byte BE length | entry bytes] [4-byte BE length | entry bytes] ...
//
// For egress the entry is `opcode || ip-packet` (the VPN encapsulation);
// for ingress it is a sealed wire frame.
//
// Result slab — a sequence of status-tagged entries:
//
//	[1-byte status | 4-byte BE length | entry bytes] ...
//
// with one result per request entry, in order. Status slabOK carries the
// sealed frame (egress) or the opened payload (ingress); the error
// statuses carry the error message, and the decoder rebuilds an error that
// unwraps to the matching sentinel (ErrDropped, wire.ErrReplay, ...) so
// errors.Is works across the boundary.
package vpn

import (
	"encoding/binary"
	"errors"
	"fmt"

	"endbox/internal/wire"
)

// Result-slab status codes. Every code except slabOK maps onto a sentinel
// error so error identity survives the boundary crossing.
const (
	slabOK      byte = 0
	slabDropped byte = 1 // ErrDropped (middlebox verdict)
	slabReplay  byte = 2 // wire.ErrReplay
	slabAuth    byte = 3 // wire.ErrAuthFailed
	slabErr     byte = 4 // any other error, identity reduced to the message
)

// slabEntryOverhead is the request-slab framing per entry.
const slabEntryOverhead = 4

// slabResultOverhead bounds the result-slab bytes added per entry beyond
// the request entry itself: the status+length header plus the worst-case
// seal expansion (wire overhead with a full padding block). Error entries
// respect the same bound because AppendResultErr truncates messages to
// slabErrMsgCap. Sizing result buffers with ResultSlabCap therefore keeps
// appends within one pooled allocation, and chunking requests so that
// request bytes + entries*slabResultOverhead fit the boundary budget
// guarantees the result crosses too.
const slabResultOverhead = 1 + 4 + 72 + 16

// slabErrMsgCap truncates error messages in result slabs so an error
// entry (5 + message) never exceeds its request entry (>= 4 bytes) plus
// slabResultOverhead - 1.
const slabErrMsgCap = slabResultOverhead - 5

// ResultSlabCap bounds the result-slab bytes produced for a request slab
// of reqBytes holding n entries, letting producers pre-size one pooled
// buffer that appends never outgrow.
func ResultSlabCap(reqBytes, n int) int { return reqBytes + n*slabResultOverhead }

// AppendSlabEntry appends one length-prefixed entry to a request slab.
func AppendSlabEntry(slab, entry []byte) []byte {
	var hdr [slabEntryOverhead]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(entry)))
	slab = append(slab, hdr[:]...)
	return append(slab, entry...)
}

// AppendSlabFrame appends an encapsulated packet — `opcode || ip` — as one
// entry, without materialising the intermediate payload buffer.
func AppendSlabFrame(slab []byte, opcode byte, ip []byte) []byte {
	var hdr [slabEntryOverhead + 1]byte
	binary.BigEndian.PutUint32(hdr[:slabEntryOverhead], uint32(1+len(ip)))
	hdr[slabEntryOverhead] = opcode
	slab = append(slab, hdr[:]...)
	return append(slab, ip...)
}

// SlabSize returns the slab bytes one entry of n payload bytes occupies.
func SlabSize(n int) int { return slabEntryOverhead + n }

// SlabReader walks a request slab's entries. Entries alias the slab.
type SlabReader struct {
	slab []byte
	off  int
	err  error
}

// NewSlabReader starts a walk over slab.
func NewSlabReader(slab []byte) SlabReader { return SlabReader{slab: slab} }

// Next returns the next entry (aliasing the slab) and whether one was
// available. A malformed slab stops the walk and is reported by Err.
func (r *SlabReader) Next() ([]byte, bool) {
	if r.err != nil || r.off == len(r.slab) {
		return nil, false
	}
	if len(r.slab)-r.off < slabEntryOverhead {
		r.err = fmt.Errorf("vpn: truncated slab entry header at offset %d", r.off)
		return nil, false
	}
	n := int(binary.BigEndian.Uint32(r.slab[r.off:]))
	r.off += slabEntryOverhead
	if len(r.slab)-r.off < n {
		r.err = fmt.Errorf("vpn: slab entry of %d bytes overruns slab at offset %d", n, r.off)
		return nil, false
	}
	entry := r.slab[r.off : r.off+n]
	r.off += n
	return entry, true
}

// Err reports a malformed slab encountered during the walk.
func (r *SlabReader) Err() error { return r.err }

// SlabCount walks a slab and returns its entry count (for pre-sizing
// result buffers), or an error for a malformed slab.
func SlabCount(slab []byte) (int, error) {
	r := NewSlabReader(slab)
	n := 0
	for {
		if _, ok := r.Next(); !ok {
			return n, r.Err()
		}
		n++
	}
}

// AppendResultOK appends a successful result entry carrying data.
func AppendResultOK(slab, data []byte) []byte {
	var hdr [5]byte
	hdr[0] = slabOK
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(data)))
	slab = append(slab, hdr[:]...)
	return append(slab, data...)
}

// AppendResultReserve appends a successful result entry of n bytes whose
// contents the caller fills in next — the in-place seal path writes its
// frame directly into the returned window, which aliases the slab.
func AppendResultReserve(slab []byte, n int) (grown, window []byte) {
	var hdr [5]byte
	hdr[0] = slabOK
	binary.BigEndian.PutUint32(hdr[1:], uint32(n))
	slab = append(slab, hdr[:]...)
	off := len(slab)
	if cap(slab) >= off+n {
		slab = slab[: off+n : cap(slab)]
	} else {
		slab = append(slab, make([]byte, n)...)
	}
	return slab, slab[off : off+n]
}

// AppendResultErr appends a failed result entry, encoding err's identity.
// Messages are truncated to slabErrMsgCap so result slabs stay within the
// ResultSlabCap bound whatever mix of errors a burst produces.
func AppendResultErr(slab []byte, err error) []byte {
	status := slabErr
	switch {
	case errors.Is(err, ErrDropped):
		status = slabDropped
	case errors.Is(err, wire.ErrReplay):
		status = slabReplay
	case errors.Is(err, wire.ErrAuthFailed):
		status = slabAuth
	}
	msg := err.Error()
	if len(msg) > slabErrMsgCap {
		msg = msg[:slabErrMsgCap]
	}
	var hdr [5]byte
	hdr[0] = status
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(msg)))
	slab = append(slab, hdr[:]...)
	return append(slab, msg...)
}

// slabError is a result-slab error rebuilt on the untrusted side: it keeps
// the in-enclave message and unwraps to the sentinel its status encodes.
type slabError struct {
	sentinel error
	msg      string
}

func (e *slabError) Error() string { return e.msg }
func (e *slabError) Unwrap() error { return e.sentinel }

// decodeResultErr rebuilds the error for a non-OK result entry.
func decodeResultErr(status byte, msg []byte) error {
	switch status {
	case slabDropped:
		return &slabError{sentinel: ErrDropped, msg: string(msg)}
	case slabReplay:
		return &slabError{sentinel: wire.ErrReplay, msg: string(msg)}
	case slabAuth:
		return &slabError{sentinel: wire.ErrAuthFailed, msg: string(msg)}
	default:
		return errors.New(string(msg))
	}
}

// ResultReader walks a result slab. Data entries alias the slab.
type ResultReader struct {
	slab []byte
	off  int
	err  error
}

// NewResultReader starts a walk over a result slab.
func NewResultReader(slab []byte) ResultReader { return ResultReader{slab: slab} }

// Next returns the next result: data (aliasing the slab) on success, or
// the entry's decoded error. ok reports whether an entry was available; a
// malformed slab stops the walk and is reported by Err.
func (r *ResultReader) Next() (data []byte, entryErr error, ok bool) {
	if r.err != nil || r.off == len(r.slab) {
		return nil, nil, false
	}
	if len(r.slab)-r.off < 5 {
		r.err = fmt.Errorf("vpn: truncated result entry header at offset %d", r.off)
		return nil, nil, false
	}
	status := r.slab[r.off]
	n := int(binary.BigEndian.Uint32(r.slab[r.off+1:]))
	r.off += 5
	if len(r.slab)-r.off < n {
		r.err = fmt.Errorf("vpn: result entry of %d bytes overruns slab at offset %d", n, r.off)
		return nil, nil, false
	}
	body := r.slab[r.off : r.off+n]
	r.off += n
	if status == slabOK {
		return body, nil, true
	}
	return nil, decodeResultErr(status, body), true
}

// Err reports a malformed result slab encountered during the walk.
func (r *ResultReader) Err() error { return r.err }

// MapSlab serves a request slab the plain way: walk it entry by entry,
// apply fn, and pack each result — or the error that excluded the entry —
// into a pooled result slab. The baseline and ablation planes and the
// enclave's ingress ecall are written with it; the egress ecall seals in
// place through AppendResultReserve instead. fn's result is copied before
// the next call, so it may alias the entry or a scratch buffer.
func MapSlab(slab []byte, fn func(entry []byte) ([]byte, error)) ([]byte, error) {
	n, err := SlabCount(slab)
	if err != nil {
		return nil, err
	}
	res := wire.GetBuffer(ResultSlabCap(len(slab), n))[:0]
	r := NewSlabReader(slab)
	for {
		entry, ok := r.Next()
		if !ok {
			return res, nil
		}
		out, err := fn(entry)
		if err != nil {
			res = AppendResultErr(res, err)
			continue
		}
		res = AppendResultOK(res, out)
	}
}
