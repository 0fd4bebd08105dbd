package udptransport

// Fuzzers for the hand-rolled binary decoders on the control path: the
// ACK and reliable-envelope headers of the ARQ layer and the
// configuration chunk header. Each asserts the no-crash property plus
// the decoder's own invariants, and round-trips whatever decodes cleanly.

import (
	"bytes"
	"testing"
)

func FuzzDecodeAck(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 0, 0, 3})
	f.Add(opened(f, encodeAck(0xFFFFFFFF, 0xFFFF, 0xFFFFFFFF)))
	f.Fuzz(func(t *testing.T, body []byte) {
		xfer, cum, bitmap, err := decodeAck(body)
		if err != nil {
			return
		}
		if len(body) != ackBodyLen {
			t.Fatalf("accepted %d-byte ack body", len(body))
		}
		back := encodeAck(xfer, cum, bitmap)
		if back[0] != MsgAck || !bytes.Equal(opened(t, back), body) {
			t.Fatalf("ack round trip: %x -> %x", body, back)
		}
	})
}

func FuzzDecodeRel(f *testing.F) {
	f.Add([]byte{})
	f.Add(opened(f, encodeRel(7, 0, 1, []byte("inner"))))
	f.Add(opened(f, encodeRel(0, 41, 42, nil)))
	f.Fuzz(func(t *testing.T, body []byte) {
		xfer, seq, total, inner, err := decodeRel(body)
		if err != nil {
			return
		}
		if total == 0 || seq >= total {
			t.Fatalf("accepted envelope with seq %d / total %d", seq, total)
		}
		back := encodeRel(xfer, seq, total, inner)
		if back[0] != MsgRel || !bytes.Equal(opened(t, back), body) {
			t.Fatalf("envelope round trip: %x -> %x", body, back)
		}
	})
}

func FuzzDecodeChunk(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 'x'})
	f.Add([]byte{0, 2, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, body []byte) {
		idx, total, data, err := DecodeChunk(body)
		if err != nil {
			return
		}
		if total == 0 || idx >= total || len(data) > ChunkPayload {
			t.Fatalf("accepted chunk idx %d total %d len %d", idx, total, len(data))
		}
	})
}

func FuzzAssembler(f *testing.F) {
	// Two arbitrary chunk bodies through one Assembler: whatever the
	// bytes, the assembler must never hand back a blob unless every
	// chunk arrived consistently.
	f.Add([]byte{0, 0, 0, 1, 'a'}, []byte{0, 0, 0, 1, 'b'})
	f.Add([]byte{0, 0, 0, 2, 'a'}, []byte{0, 1, 0, 2, 'b'})
	f.Fuzz(func(t *testing.T, first, second []byte) {
		var a Assembler
		done1, err1 := a.Add(first)
		if err1 != nil {
			return
		}
		done2, err2 := a.Add(second)
		got, want := a.Received()
		if got > want {
			t.Fatalf("assembler holds %d/%d chunks", got, want)
		}
		complete := done1 || (err2 == nil && done2)
		blob, err := a.Blob()
		if complete && err != nil {
			t.Fatalf("complete fetch refused: %v", err)
		}
		if !complete && err == nil {
			t.Fatalf("incomplete fetch produced a %d-byte blob", len(blob))
		}
	})
}
