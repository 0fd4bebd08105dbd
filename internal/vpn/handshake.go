// Package vpn implements the OpenVPN-style virtual private network EndBox
// builds on (paper §III, §IV): a TLS-like control-channel handshake
// authenticated by attestation certificates, an AES-CBC+HMAC data channel
// with replay protection (internal/wire), in-band keepalive pings extended
// with configuration version and grace-period fields (paper §III-E), and
// server-side enforcement that blocks clients running stale middlebox
// configurations once the grace period expires.
//
// The package deliberately exposes seams where EndBox inserts the enclave:
// the client's handshake signing function and its DataPlane (packet
// processing + data-channel crypto) are injected, so internal/core can run
// both inside SGX while a vanilla OpenVPN configuration runs them in plain
// process memory. This mirrors the paper's partitioning of OpenVPN (Fig. 3).
package vpn

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"endbox/internal/attest"
	"endbox/internal/wire"
)

// TLS protocol versions used for downgrade protection (paper §V-A
// "Downgrade attacks").
const (
	TLS12 = 0x0303
	TLS13 = 0x0304
)

// Common errors.
var (
	ErrBadCert       = errors.New("vpn: client certificate invalid")
	ErrBadSignature  = errors.New("vpn: handshake signature invalid")
	ErrDowngrade     = errors.New("vpn: TLS version below server minimum")
	ErrBadServerCred = errors.New("vpn: server credential not endorsed by CA")
	ErrUnknownClient = errors.New("vpn: unknown client")
	ErrStaleConfig   = errors.New("vpn: client configuration version blocked by policy")
	ErrDuplicateID   = errors.New("vpn: client id already connected")
)

// SignFunc signs a handshake transcript. For EndBox clients the signature
// is produced by an ecall so the enclave-held key never leaves SGX.
type SignFunc func(transcript []byte) ([]byte, error)

// ClientHello opens the handshake. The certificate was issued by the CA
// after remote attestation (internal/attest); a client without one cannot
// produce a hello the server accepts, which is how EndBox locks unattested
// machines out of the managed network (paper §III-C).
type ClientHello struct {
	ClientID      string
	Cert          *attest.Certificate
	MaxTLS        uint16
	ConfigVersion uint64
	Nonce         [32]byte
	EphPub        []byte
	Signature     []byte
}

func (h *ClientHello) transcript() []byte {
	buf := []byte("endbox-hello-v1:")
	buf = append(buf, h.ClientID...)
	var tmp [8]byte
	binary.BigEndian.PutUint16(tmp[:2], h.MaxTLS)
	buf = append(buf, tmp[:2]...)
	binary.BigEndian.PutUint64(tmp[:], h.ConfigVersion)
	buf = append(buf, tmp[:]...)
	buf = append(buf, h.Nonce[:]...)
	buf = append(buf, h.EphPub...)
	return buf
}

// ServerHello answers with the server's ephemeral key, the negotiated TLS
// version and the currently required configuration version.
type ServerHello struct {
	Nonce         [32]byte
	EphPub        []byte
	ChosenTLS     uint16
	ConfigVersion uint64
	ServerPub     ed25519.PublicKey
	ServerPubSig  []byte // CA endorsement of ServerPub
	// Ticket is the sealed resumption state for this session (opaque to
	// the client): presenting it in a ResumeRequest re-establishes the
	// session without re-running attestation or enrolment. Covered by
	// the transcript signature, so it cannot be swapped in transit.
	Ticket    []byte
	Signature []byte
}

func (h *ServerHello) transcript(clientTranscript []byte) []byte {
	buf := append([]byte("endbox-shello-v1:"), clientTranscript...)
	buf = append(buf, h.Nonce[:]...)
	buf = append(buf, h.EphPub...)
	var tmp [8]byte
	binary.BigEndian.PutUint16(tmp[:2], h.ChosenTLS)
	buf = append(buf, tmp[:2]...)
	binary.BigEndian.PutUint64(tmp[:], h.ConfigVersion)
	buf = append(buf, tmp[:]...)
	buf = append(buf, h.Ticket...)
	return buf
}

// HandshakeState carries the client's ephemeral secret between hello and
// finish.
type HandshakeState struct {
	hello   *ClientHello
	ephPriv *ecdh.PrivateKey
}

// NewClientHello builds and signs the opening message. sign must use the
// key certified in cert.
func NewClientHello(clientID string, cert *attest.Certificate, configVersion uint64, maxTLS uint16, sign SignFunc) (*ClientHello, *HandshakeState, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("vpn: ephemeral key: %w", err)
	}
	h := &ClientHello{
		ClientID:      clientID,
		Cert:          cert,
		MaxTLS:        maxTLS,
		ConfigVersion: configVersion,
		EphPub:        eph.PublicKey().Bytes(),
	}
	if _, err := rand.Read(h.Nonce[:]); err != nil {
		return nil, nil, fmt.Errorf("vpn: nonce: %w", err)
	}
	sig, err := sign(h.transcript())
	if err != nil {
		return nil, nil, fmt.Errorf("vpn: sign hello: %w", err)
	}
	h.Signature = sig
	return h, &HandshakeState{hello: h, ephPriv: eph}, nil
}

// FinishClient processes the server's answer: verify the CA endorsement and
// transcript signature, enforce the minimum TLS version (this check runs
// inside the enclave in EndBox, so a compromised host cannot skip it —
// paper §V-A), and derive the session master secret.
func FinishClient(st *HandshakeState, sh *ServerHello, caPub ed25519.PublicKey, minTLS uint16) ([]byte, error) {
	if !attest.VerifyServerKey(caPub, sh.ServerPub, sh.ServerPubSig) {
		return nil, ErrBadServerCred
	}
	if !ed25519.Verify(sh.ServerPub, sh.transcript(st.hello.transcript()), sh.Signature) {
		return nil, ErrBadSignature
	}
	if sh.ChosenTLS < minTLS {
		return nil, fmt.Errorf("%w: chosen %#x < min %#x", ErrDowngrade, sh.ChosenTLS, minTLS)
	}
	return deriveMaster(st.ephPriv, sh.EphPub, st.hello.Nonce, sh.Nonce)
}

func deriveMaster(priv *ecdh.PrivateKey, peerPub []byte, cNonce, sNonce [32]byte) ([]byte, error) {
	peer, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("vpn: peer ephemeral key: %w", err)
	}
	secret, err := priv.ECDH(peer)
	if err != nil {
		return nil, fmt.Errorf("vpn: ECDH: %w", err)
	}
	h := sha256.New()
	h.Write([]byte("endbox-master-v1:"))
	h.Write(secret)
	h.Write(cNonce[:])
	h.Write(sNonce[:])
	return h.Sum(nil), nil
}

// Frame type tags inside the sealed data channel. Authenticity of every
// frame — pings included — is validated by the channel MAC inside the
// enclave (paper §III-E: "To prevent malicious clients from sending crafted
// ping messages, the authenticity of all packets is validated inside the
// enclave").
const (
	// FrameData carries a tunnelled IP packet.
	FrameData byte = 1
	// FramePing carries a keepalive/config-announce message.
	FramePing byte = 2
)

// Ping is the OpenVPN keepalive extended with EndBox's two extra fields
// (paper §III-E): the latest configuration version and its grace period.
type Ping struct {
	SentUnixNano  int64
	ConfigVersion uint64
	GraceSeconds  uint32
}

// pingLen is the encoded size of a Ping.
const pingLen = 8 + 8 + 4

// EncodePing serialises a ping with its frame tag.
func EncodePing(p Ping) []byte {
	buf := make([]byte, 1+pingLen)
	buf[0] = FramePing
	binary.BigEndian.PutUint64(buf[1:9], uint64(p.SentUnixNano))
	binary.BigEndian.PutUint64(buf[9:17], p.ConfigVersion)
	binary.BigEndian.PutUint32(buf[17:21], p.GraceSeconds)
	return buf
}

// DecodePing parses a ping payload (after the frame tag).
func DecodePing(body []byte) (Ping, error) {
	if len(body) != pingLen {
		return Ping{}, fmt.Errorf("vpn: bad ping length %d", len(body))
	}
	return Ping{
		SentUnixNano:  int64(binary.BigEndian.Uint64(body[0:8])),
		ConfigVersion: binary.BigEndian.Uint64(body[8:16]),
		GraceSeconds:  binary.BigEndian.Uint32(body[16:20]),
	}, nil
}

// DataPlane is the one seam between the VPN client and whatever protects
// its data channel. Everything crosses it as a slab (slab.go): a burst — or
// a lone packet, as a slab of one — packed into one contiguous buffer each
// way. EndBox's implementation is one ecall per slab running Click and the
// channel crypto inside the enclave (paper §IV-A: "ENDBOX performs only one
// ecall per sent or received packet"); the vanilla implementation is a bare
// wire.Session. Result slabs are pooled: the caller releases them with
// wire.PutBuffer once every entry has been consumed.
type DataPlane interface {
	// SealSlab seals every entry of a request slab (entries are
	// `opcode || body` encapsulations) and returns the result slab.
	SealSlab(slab []byte) ([]byte, error)
	// OpenSlab opens every entry of a request slab (entries are sealed
	// wire frames, decrypted in place) and returns the result slab.
	OpenSlab(slab []byte) ([]byte, error)
	// SlabBudget bounds the slab bytes one call carries in either
	// direction (the enclave's boundary limit).
	SlabBudget() int
}

// ErrDropped signals that the middlebox rejected the packet; it is not a
// failure of the channel.
var ErrDropped = errors.New("vpn: packet dropped by middlebox")

// PlainDataPlane adapts a bare wire.Session as the DataPlane of a vanilla
// OpenVPN endpoint (no middlebox, no enclave).
type PlainDataPlane struct {
	Session *wire.Session
}

// SealSlab implements DataPlane.
func (p *PlainDataPlane) SealSlab(slab []byte) ([]byte, error) {
	return MapSlab(slab, p.Session.Seal)
}

// OpenSlab implements DataPlane.
func (p *PlainDataPlane) OpenSlab(slab []byte) ([]byte, error) {
	return MapSlab(slab, p.Session.OpenInPlace)
}

// SlabBudget implements DataPlane: there is no boundary to fit, so the
// budget only bounds the pooled slab buffers.
func (p *PlainDataPlane) SlabBudget() int { return 256 << 10 }

// Clock abstracts time for virtual-time tests.
type Clock func() time.Time
