// Package udptransport frames the EndBox control and data messages that
// the cmd/endbox-server and cmd/endbox-client binaries exchange over UDP:
// platform registration, remote attestation, the VPN handshake,
// configuration fetches and data-channel frames. Each datagram is one
// message: a single type byte followed by the body (JSON for control
// messages, raw wire frames for data). The full wire specification,
// including every message type and the reliability state machines, lives
// in docs/PROTOCOL.md.
//
// Two delivery classes share the socket:
//
//   - Control/configuration messages ride a selective-repeat ARQ layer
//     (arq.go): they are wrapped in MsgRel envelopes with per-transfer
//     sequence numbers, acknowledged by MsgAck (cumulative + selective),
//     and retransmitted on backed-off timers with a retry budget, so a
//     multi-chunk configuration fetch survives loss instead of timing
//     out when one datagram disappears.
//   - Data-channel frames (MsgFrame) are fire-and-forget, exactly like
//     the packets they tunnel: no sequence numbers, no acks, no copies.
//
// Buffer ownership: datagrams are read into pooled buffers
// (wire.GetBuffer). A buffer is reused for the next read unless frame
// dispatch hands its ownership to the ingress worker pool
// (dataplane.Pool.SubmitOwned), which releases it after the handler
// returns. Control-message bodies are lent to handlers for the duration
// of the call — the ARQ layer and the JSON decoders copy what they keep.
// See DESIGN.md "Buffer ownership" for the deployment-wide rules.
package udptransport

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
)

// Message types.
const (
	// MsgRegister registers the client platform's quoting-enclave key
	// with the IAS (standing in for Intel's manufacturing provisioning).
	MsgRegister byte = 'R'
	// MsgRegisterOK acknowledges registration.
	MsgRegisterOK byte = 'r'
	// MsgQuote submits an attestation quote for enrolment.
	MsgQuote byte = 'Q'
	// MsgProvision answers with the certificate + sealed shared key.
	MsgProvision byte = 'P'
	// MsgHello opens the VPN handshake.
	MsgHello byte = 'H'
	// MsgServerHello answers the handshake.
	MsgServerHello byte = 'S'
	// MsgResume opens a fast session resume: a resumption ticket and a
	// signed transcript replace the certificate walk and key exchange of
	// a full handshake (docs/PROTOCOL.md §8).
	MsgResume byte = 'u'
	// MsgResumeOK answers a resume with the rotated ticket and the
	// server's signature.
	MsgResumeOK byte = 'U'
	// MsgFrame carries one sealed data-channel frame (either direction).
	MsgFrame byte = 'D'
	// MsgControl carries one sealed control-class frame (keepalive pings,
	// nacks, health reports). It is identical to MsgFrame on the wire
	// except for the delivery class: the server submits it to the ingress
	// pool with SubmitControl semantics, so it keeps flowing through the
	// watermark headroom while data frames are being shed under flood.
	// The type byte is outside the sealed frame and therefore
	// unauthenticated — an attacker marking flood datagrams as control
	// only gains the bounded headroom between the watermark and the hard
	// queue depth, and the frames still fail sealed-frame authentication.
	MsgControl byte = 'k'
	// MsgFetch requests a configuration blob by version (8-byte big
	// endian body).
	MsgFetch byte = 'F'
	// MsgConfig answers a fetch with the sealed update blob.
	MsgConfig byte = 'C'
	// MsgError carries a textual error.
	MsgError byte = '!'
	// MsgRel is the reliable-delivery envelope: a control message wrapped
	// with a transfer ID and sequence numbers so the ARQ layer can
	// retransmit it (body: 4-byte transfer, 2-byte seq, 2-byte total,
	// inner datagram, 4-byte CRC-32C — see arq.go and docs/PROTOCOL.md §5).
	MsgRel byte = '+'
	// MsgAck acknowledges reliable segments: a cumulative ack plus a
	// 32-bit selective-ack bitmap (body: 4-byte transfer, 2-byte cum,
	// 4-byte bitmap, 4-byte CRC-32C).
	MsgAck byte = 'A'
)

// MaxDatagram bounds message sizes (fits a 64 kB tunnelled packet plus
// framing overhead within the UDP maximum).
const MaxDatagram = 65507

// ErrShortMessage reports an empty datagram.
var ErrShortMessage = errors.New("udptransport: empty datagram")

// Register is the body of MsgRegister.
type Register struct {
	PlatformID string            `json:"platform_id"`
	Key        ed25519.PublicKey `json:"key"`
}

// Encode prepends the type byte to a body.
func Encode(msgType byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = msgType
	copy(out[1:], body)
	return out
}

// EncodeJSON marshals body and frames it.
func EncodeJSON(msgType byte, body any) ([]byte, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("udptransport: marshal %c: %w", msgType, err)
	}
	if len(raw)+1 > MaxDatagram {
		return nil, fmt.Errorf("udptransport: %c message too large (%d bytes)", msgType, len(raw))
	}
	return Encode(msgType, raw), nil
}

// Decode splits a datagram into type and body. The body aliases the input.
func Decode(datagram []byte) (byte, []byte, error) {
	if len(datagram) == 0 {
		return 0, nil, ErrShortMessage
	}
	return datagram[0], datagram[1:], nil
}

// DecodeJSON unmarshals a message body.
func DecodeJSON(body []byte, into any) error {
	if err := json.Unmarshal(body, into); err != nil {
		return fmt.Errorf("udptransport: unmarshal: %w", err)
	}
	return nil
}

// Errorf builds a MsgError datagram.
func Errorf(format string, args ...any) []byte {
	return Encode(MsgError, []byte(fmt.Sprintf(format, args...)))
}

// ChunkPayload is the maximum data bytes per configuration chunk,
// conservative against the UDP maximum after framing. Every chunk except
// the last carries exactly this much; receivers enforce it so a corrupt
// or malicious chunk stream cannot silently shift blob offsets.
const ChunkPayload = 60000

// MaxChunks bounds a single fetch's chunk count (a ~60 MB blob; the
// 16-bit header field is the hard ceiling).
const MaxChunks = 1024

// ErrBadChunk reports a MsgConfig datagram whose own header is invalid
// (short body, zero total, index out of range, oversized payload).
var ErrBadChunk = errors.New("udptransport: bad config chunk")

// ErrChunkMismatch reports chunks that are individually well-formed but
// inconsistent across one fetch: a total that changes mid-stream, a
// duplicate index carrying different bytes, or a non-final chunk shorter
// than ChunkPayload (which would silently shift every later offset).
var ErrChunkMismatch = errors.New("udptransport: config chunk mismatch")

// EncodeChunks splits a large blob into MsgConfig datagrams, each carrying
// [2-byte index][2-byte total][data]. Configuration blobs with full rule
// sets exceed a single UDP datagram. It fails on blobs needing more than
// MaxChunks chunks.
func EncodeChunks(blob []byte) ([][]byte, error) {
	total := (len(blob) + ChunkPayload - 1) / ChunkPayload
	if total == 0 {
		total = 1
	}
	if total > MaxChunks {
		return nil, fmt.Errorf("udptransport: blob of %d bytes needs %d chunks (max %d)", len(blob), total, MaxChunks)
	}
	out := make([][]byte, 0, total)
	for i := 0; i < total; i++ {
		start := i * ChunkPayload
		end := start + ChunkPayload
		if end > len(blob) {
			end = len(blob)
		}
		body := make([]byte, 4+end-start)
		body[0], body[1] = byte(i>>8), byte(i)
		body[2], body[3] = byte(total>>8), byte(total)
		copy(body[4:], blob[start:end])
		out = append(out, Encode(MsgConfig, body))
	}
	return out, nil
}

// DecodeChunk splits a MsgConfig body into its index, total and data. The
// data slice aliases body. Errors wrap ErrBadChunk.
func DecodeChunk(body []byte) (index, total int, data []byte, err error) {
	if len(body) < 4 {
		return 0, 0, nil, fmt.Errorf("%w: short body (%d bytes)", ErrBadChunk, len(body))
	}
	index = int(body[0])<<8 | int(body[1])
	total = int(body[2])<<8 | int(body[3])
	if total == 0 || index >= total {
		return 0, 0, nil, fmt.Errorf("%w: header %d/%d", ErrBadChunk, index, total)
	}
	if len(body)-4 > ChunkPayload {
		return 0, 0, nil, fmt.Errorf("%w: %d payload bytes exceed ChunkPayload", ErrBadChunk, len(body)-4)
	}
	return index, total, body[4:], nil
}

// Assembler reassembles one chunked configuration fetch, rejecting the
// inconsistencies DecodeChunk cannot see on its own: a total that changes
// between chunks, duplicate indices with different payloads, and non-final
// chunks shorter than ChunkPayload. Retransmitted chunks (identical index
// and bytes — routine under the ARQ layer) are absorbed silently. The
// zero value is ready to use; an Assembler is not safe for concurrent use.
type Assembler struct {
	total  int
	count  int
	chunks [][]byte
}

// Add consumes one MsgConfig body. It reports whether the fetch is now
// complete; errors wrap ErrBadChunk or ErrChunkMismatch and poison the
// fetch (the caller should abandon the Assembler).
func (a *Assembler) Add(body []byte) (complete bool, err error) {
	idx, total, data, err := DecodeChunk(body)
	if err != nil {
		return false, err
	}
	if a.total == 0 {
		a.total = total
		a.chunks = make([][]byte, total)
	}
	if total != a.total {
		return false, fmt.Errorf("%w: total changed %d -> %d mid-fetch", ErrChunkMismatch, a.total, total)
	}
	if idx < a.total-1 && len(data) != ChunkPayload {
		return false, fmt.Errorf("%w: chunk %d/%d carries %d bytes, want %d", ErrChunkMismatch, idx, total, len(data), ChunkPayload)
	}
	if prev := a.chunks[idx]; prev != nil {
		if !bytes.Equal(prev, data) {
			return false, fmt.Errorf("%w: duplicate chunk %d with different payload", ErrChunkMismatch, idx)
		}
		return a.count == a.total, nil // idempotent retransmit
	}
	// Copy out of the reused receive buffer. make keeps zero-length
	// chunks non-nil, so their retransmits still hit the duplicate path.
	c := make([]byte, len(data))
	copy(c, data)
	a.chunks[idx] = c
	a.count++
	return a.count == a.total, nil
}

// Received reports reassembly progress: chunks held and the expected
// total (0 before the first chunk arrives).
func (a *Assembler) Received() (got, total int) { return a.count, a.total }

// Blob concatenates the reassembled configuration. It fails while chunks
// are still missing.
func (a *Assembler) Blob() ([]byte, error) {
	if a.total == 0 || a.count != a.total {
		return nil, fmt.Errorf("%w: %d/%d chunks held", ErrChunkMismatch, a.count, a.total)
	}
	size := 0
	for _, c := range a.chunks {
		size += len(c)
	}
	blob := make([]byte, 0, size)
	for _, c := range a.chunks {
		blob = append(blob, c...)
	}
	return blob, nil
}
