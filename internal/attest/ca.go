package attest

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"endbox/internal/sgx"
)

// DefaultCertLifetime bounds certificate validity; enclaves re-attest after
// expiry.
const DefaultCertLifetime = 30 * 24 * time.Hour

// SharedKeySize is the size of the symmetric key the CA provisions into
// enclaves for decrypting configuration files (paper §III-C/E).
const SharedKeySize = 32

// CA is the certificate authority operated by the network owner. Its public
// key is pre-deployed into enclave binaries at compile time to prevent
// man-in-the-middle attacks during bootstrap (paper §III-C).
type CA struct {
	ias  *IAS
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey

	mu        sync.Mutex
	allowed   map[string]bool // hex measurement -> allowed
	sharedKey []byte
	// configMaster roots the per-measurement configuration keys: each
	// enclave build's key is derived from it and the build's measurement,
	// so a config sealed to build B is unopenable by any other build.
	configMaster []byte
	serial       uint64
	lifetime     time.Duration
	now          func() time.Time
}

// NewCA creates a CA trusting the given IAS, with a freshly generated
// signing key and configuration shared key.
func NewCA(ias *IAS) (*CA, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("attest: generate CA key: %w", err)
	}
	shared := make([]byte, SharedKeySize)
	if _, err := rand.Read(shared); err != nil {
		return nil, fmt.Errorf("attest: generate shared key: %w", err)
	}
	master := make([]byte, SharedKeySize)
	if _, err := rand.Read(master); err != nil {
		return nil, fmt.Errorf("attest: generate config master key: %w", err)
	}
	return &CA{
		ias:          ias,
		priv:         priv,
		pub:          pub,
		allowed:      make(map[string]bool),
		sharedKey:    shared,
		configMaster: master,
		lifetime:     DefaultCertLifetime,
		now:          time.Now,
	}, nil
}

// PublicKey is deployed into enclave images and verifies certificates and
// configuration signatures.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.pub }

// SharedKey returns a copy of the symmetric configuration key; the config
// subsystem uses it to encrypt rule sets in the enterprise scenario.
func (ca *CA) SharedKey() []byte {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	return append([]byte(nil), ca.sharedKey...)
}

// SetLifetime overrides the certificate validity window.
func (ca *CA) SetLifetime(d time.Duration) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.lifetime = d
}

// SetTimeSource injects a clock for virtual-time tests. Nil restores
// time.Now.
func (ca *CA) SetTimeSource(now func() time.Time) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	ca.now = now
}

// AllowMeasurement adds an enclave build to the set of known-good
// measurements. Operators update this when rolling out new client builds.
func (ca *CA) AllowMeasurement(m sgx.Measurement) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.allowed[m.String()] = true
}

// RevokeMeasurement removes a build, e.g. after a vulnerability disclosure.
// Certificates already issued for the build stay valid until they expire;
// live-session revocation is the policy engine's job (internal/policy).
func (ca *CA) RevokeMeasurement(m sgx.Measurement) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	delete(ca.allowed, m.String())
}

// MeasurementKey derives the configuration key for one enclave build:
// HMAC(configMaster, measurement). Deterministic per (CA, build), so the
// operator can seal an update to a build at any time, and never stored —
// re-derived on demand and provisioned only to enclaves that attested
// exactly that measurement.
func (ca *CA) MeasurementKey(m sgx.Measurement) []byte {
	ca.mu.Lock()
	master := ca.configMaster
	ca.mu.Unlock()
	mac := hmac.New(sha256.New, master)
	mac.Write([]byte("endbox-measurement-key-v1:"))
	mac.Write(m[:])
	return mac.Sum(nil)
}

// Provision is the CA's enrolment answer (paper Fig. 4 step 6): the signed
// certificate plus the configuration shared key encrypted to the enclave's
// X25519 public key, so only code inside the attested enclave learns it.
type Provision struct {
	Certificate *Certificate `json:"certificate"`
	// EphemeralPub is the CA's ephemeral X25519 public key.
	EphemeralPub []byte `json:"ephemeral_pub"`
	// SealedKey is nonce || AES-256-GCM(sharedKey) under the ECDH secret.
	SealedKey []byte `json:"sealed_key"`
	// BuildKeyPub and SealedBuildKey carry the per-measurement
	// configuration key (CA.MeasurementKey of the attested measurement),
	// sealed to the enclave's box key exactly like SealedKey. Only
	// enclaves that attested measurement M ever receive M's key, which is
	// what makes measurement-sealed configuration updates (config.SealTo)
	// cryptographically unopenable by other builds.
	BuildKeyPub    []byte `json:"build_key_pub,omitempty"`
	SealedBuildKey []byte `json:"sealed_build_key,omitempty"`
}

// Enroll runs the server side of remote attestation: relay the quote to the
// IAS, check the verdict and measurement allowlist, sign a certificate over
// the enclave's keys and encrypt the shared key to its box key.
func (ca *CA) Enroll(q Quote) (*Provision, error) {
	verdict, err := ca.ias.Verify(q)
	if err != nil {
		return nil, fmt.Errorf("attest: IAS rejected quote: %w", err)
	}
	if err := VerifyVerdict(ca.ias.PublicKey(), verdict); err != nil {
		return nil, err
	}
	if !verdict.OK {
		return nil, ErrBadQuote
	}

	ca.mu.Lock()
	allowed := ca.allowed[verdict.Measurement.String()]
	ca.serial++
	serial := ca.serial
	lifetime := ca.lifetime
	now := ca.now()
	shared := append([]byte(nil), ca.sharedKey...)
	ca.mu.Unlock()

	if !allowed {
		return nil, fmt.Errorf("%w: %s", ErrMeasurementDenied, verdict.Measurement)
	}

	keys, err := ParseUserData(verdict.UserData)
	if err != nil {
		return nil, err
	}

	cert := &Certificate{
		Serial:      serial,
		Keys:        keys,
		Measurement: verdict.Measurement,
		IssuedAt:    now,
		ExpiresAt:   now.Add(lifetime),
	}
	cert.Signature = ed25519.Sign(ca.priv, cert.signedBytes())

	ephPub, sealed, err := boxSeal(keys.BoxPub, shared)
	if err != nil {
		return nil, err
	}
	buildPub, sealedBuild, err := boxSeal(keys.BoxPub, ca.MeasurementKey(verdict.Measurement))
	if err != nil {
		return nil, err
	}
	return &Provision{
		Certificate:    cert,
		EphemeralPub:   ephPub,
		SealedKey:      sealed,
		BuildKeyPub:    buildPub,
		SealedBuildKey: sealedBuild,
	}, nil
}

// IssueDirect signs a certificate without attestation — the ordinary
// OpenVPN certificate path used by the evaluation's vanilla-OpenVPN and
// OpenVPN+Click baselines, where clients are plain VPN endpoints without
// enclaves. EndBox deployments never call this; their certificates come
// from Enroll.
func (ca *CA) IssueDirect(keys EnclaveKeys) (*Certificate, error) {
	ca.mu.Lock()
	ca.serial++
	serial := ca.serial
	lifetime := ca.lifetime
	now := ca.now()
	ca.mu.Unlock()

	cert := &Certificate{
		Serial:    serial,
		Keys:      keys,
		IssuedAt:  now,
		ExpiresAt: now.Add(lifetime),
	}
	cert.Signature = ed25519.Sign(ca.priv, cert.signedBytes())
	return cert, nil
}

// SignConfig signs a middlebox configuration blob under a config-specific
// domain separator (paper §III-E: "The CA's public key and the pre-shared
// key are used to sign and optionally encrypt configuration files").
func (ca *CA) SignConfig(data []byte) []byte {
	return ed25519.Sign(ca.priv, append([]byte("endbox-config-v1:"), data...))
}

// VerifyConfigSig checks a configuration signature against the CA public
// key baked into enclave images.
func VerifyConfigSig(caPub ed25519.PublicKey, data, sig []byte) bool {
	return ed25519.Verify(caPub, append([]byte("endbox-config-v1:"), data...), sig)
}

// SignServerKey endorses a VPN server's public key so clients can
// authenticate the server during the handshake (the OpenVPN server
// certificate's role).
func (ca *CA) SignServerKey(serverPub ed25519.PublicKey) []byte {
	return ed25519.Sign(ca.priv, append([]byte("endbox-server-v1:"), serverPub...))
}

// VerifyServerKey checks a server-key endorsement.
func VerifyServerKey(caPub ed25519.PublicKey, serverPub ed25519.PublicKey, sig []byte) bool {
	return ed25519.Verify(caPub, append([]byte("endbox-server-v1:"), serverPub...), sig)
}

// boxSeal encrypts payload to an X25519 public key using an ephemeral key
// exchange and AES-256-GCM (a minimal sealed box).
func boxSeal(boxPub, payload []byte) (ephemeralPub, sealed []byte, err error) {
	curve := ecdh.X25519()
	peer, err := curve.NewPublicKey(boxPub)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: bad enclave box key: %w", err)
	}
	eph, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: ephemeral key: %w", err)
	}
	secret, err := eph.ECDH(peer)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: ECDH: %w", err)
	}
	aead, nonce, err := boxAEAD(secret)
	if err != nil {
		return nil, nil, err
	}
	return eph.PublicKey().Bytes(), aead.Seal(nonce, nonce, payload, nil), nil
}

// BoxOpen decrypts a sealed box with the enclave's private X25519 key. It
// runs inside the enclave (paper Fig. 4 step 6: the provisioned key never
// exists in plaintext outside).
func BoxOpen(boxPriv *ecdh.PrivateKey, ephemeralPub, sealed []byte) ([]byte, error) {
	curve := ecdh.X25519()
	peer, err := curve.NewPublicKey(ephemeralPub)
	if err != nil {
		return nil, ErrProvisionCorrupt
	}
	secret, err := boxPriv.ECDH(peer)
	if err != nil {
		return nil, ErrProvisionCorrupt
	}
	aead, _, err := boxAEAD(secret)
	if err != nil {
		return nil, err
	}
	ns := aead.NonceSize()
	if len(sealed) < ns {
		return nil, ErrProvisionCorrupt
	}
	pt, err := aead.Open(nil, sealed[:ns], sealed[ns:], nil)
	if err != nil {
		return nil, ErrProvisionCorrupt
	}
	return pt, nil
}

// boxAEAD derives an AES-256-GCM AEAD from an ECDH shared secret and
// returns it with a fresh random nonce for sealing.
func boxAEAD(secret []byte) (cipher.AEAD, []byte, error) {
	key := sha256.Sum256(append([]byte("endbox-box-v1:"), secret...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, nil, fmt.Errorf("attest: box cipher: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, fmt.Errorf("attest: box AEAD: %w", err)
	}
	nonce := make([]byte, gcm.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, nil, fmt.Errorf("attest: box nonce: %w", err)
	}
	return gcm, nonce, nil
}
