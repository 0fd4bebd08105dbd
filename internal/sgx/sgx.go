// Package sgx provides a software simulation of the Intel SGX primitives
// EndBox depends on: measured enclaves, the ecall/ocall boundary, enclave
// page cache (EPC) accounting, data sealing, local attestation reports and
// a trusted time source.
//
// The real system runs on SGX hardware; this reproduction substitutes a
// software runtime that preserves the three properties the paper's
// evaluation relies on (DESIGN.md §2): code identity via measurement, the
// cost of crossing the enclave boundary and of exceeding the EPC, and the
// partition between trusted and untrusted code. Hardware mode charges a
// calibrated CPU cost per transition — mirroring the paper's "EndBox SGX"
// configuration — while simulation mode does not, mirroring "EndBox SIM"
// (Intel SGX SDK simulation mode, paper §IV).
//
// The ecall table holds two handler shapes. A boxed ecall (RegisterEcall,
// Ecall) passes any Go value, which suits the cold interface: attestation,
// handshake, configuration, statistics. A byte-typed ecall
// (RegisterBytesEcall, EcallBytes) passes a []byte each way and nothing
// else — what a real enclave edge, or an out-of-process backend, can carry
// — and so a crossing allocates nothing; the per-packet slab ecalls are
// byte-typed. A name belongs to exactly one shape and is reachable only
// through that shape's entry (the other reports ErrUnknownEcall). Both
// entries run through the same enter and exit: destroyed, initialised,
// known name, argument and result within MaxBoundaryBytes, the execution
// lock, the transition cost and the Ecalls/Transitions counters exist once.
package sgx

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Mode selects between the SGX SDK's simulation mode and real hardware
// behaviour (paper §IV: "the SDK offers a simulation mode that allows the
// execution of SGX applications on unsupported hardware").
type Mode int

// Enclave execution modes.
const (
	// ModeSimulation runs enclave code without transition costs or EPC
	// pressure, like the SDK simulation mode: identical behaviour, no
	// hardware protection and no hardware overhead.
	ModeSimulation Mode = iota + 1
	// ModeHardware charges the configured per-transition cost and enforces
	// EPC limits with paging penalties, like SGX instructions on real CPUs.
	ModeHardware
)

// String implements fmt.Stringer for diagnostics.
func (m Mode) String() string {
	switch m {
	case ModeSimulation:
		return "SIM"
	case ModeHardware:
		return "SGX"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// DefaultEPCSize is the enclave page cache available per machine in SGXv1
// (paper §II-C: "The EPC size in the current version of SGX is limited to
// 128 MB per machine").
const DefaultEPCSize = 128 << 20

// DefaultTransitionCost approximates the CPU time of one enclave transition
// (EENTER/EEXIT pair). Prior work cited by the paper measured transitions as
// more expensive than a system call; ~8,000 cycles on the evaluated Xeon v5
// is roughly 2.5 µs.
const DefaultTransitionCost = 2500 * time.Nanosecond

// Common errors.
var (
	ErrDestroyed      = errors.New("sgx: enclave destroyed")
	ErrNotInitialized = errors.New("sgx: enclave not initialized")
	ErrUnknownEcall   = errors.New("sgx: unknown ecall")
	ErrUnknownOcall   = errors.New("sgx: unknown ocall")
	ErrArgTooLarge    = errors.New("sgx: argument exceeds boundary limit")
	ErrEPCExhausted   = errors.New("sgx: EPC reservation exceeds machine limit")
	ErrBadReport      = errors.New("sgx: report MAC verification failed")
	ErrSealCorrupt    = errors.New("sgx: sealed blob corrupt or wrong enclave")
	ErrBadMeasurement = errors.New("sgx: malformed measurement")
)

// Measurement is the SHA-256 hash identifying enclave code and initial data,
// the equivalent of SGX's MRENCLAVE.
type Measurement [32]byte

// String returns the hex form used in CA allowlists and logs.
func (m Measurement) String() string { return hex.EncodeToString(m[:]) }

// IsZero reports whether the measurement is all-zero. A zero measurement
// can never arise from Image.Measure (it is a SHA-256 output), so it marks
// an unset value or a forged report.
func (m Measurement) IsZero() bool { return m == Measurement{} }

// ParseMeasurement reverses Measurement.String: 64 hex characters decoding
// to 32 bytes. Anything else — wrong length, non-hex garbage — fails with
// ErrBadMeasurement, so operator-supplied strings (allowlist flags, policy
// specs) cannot smuggle malformed identities into measurement maps.
func ParseMeasurement(s string) (Measurement, error) {
	var m Measurement
	if len(s) != 2*len(m) {
		return Measurement{}, fmt.Errorf("%w: %d hex chars, want %d", ErrBadMeasurement, len(s), 2*len(m))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return Measurement{}, fmt.Errorf("%w: %v", ErrBadMeasurement, err)
	}
	copy(m[:], b)
	return m, nil
}

// Image describes the enclave binary to be loaded: the code identity from
// which the measurement derives. In the real system this is the signed
// enclave shared object containing OpenVPN's sensitive parts, TaLoS and
// Click (paper §IV).
type Image struct {
	// Name identifies the enclave binary (e.g. "endbox-client").
	Name string
	// Version distinguishes builds; a new version yields a new measurement,
	// so the CA must re-approve updated enclaves.
	Version string
	// Code stands in for the enclave's executable pages.
	Code []byte
	// InitData stands in for initialised data pages baked into the binary,
	// such as the CA public key pre-deployed at compile time (paper §III-C).
	InitData []byte
}

// Measure computes the image's measurement. It is deterministic in all
// fields, so any tampering with code or baked-in data changes the identity.
func (im Image) Measure() Measurement {
	h := sha256.New()
	writeLenPrefixed := func(b []byte) {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	writeLenPrefixed([]byte(im.Name))
	writeLenPrefixed([]byte(im.Version))
	writeLenPrefixed(im.Code)
	writeLenPrefixed(im.InitData)
	var m Measurement
	h.Sum(m[:0])
	return m
}

// CPU models one SGX-capable processor: the root of trust from which
// sealing and report keys derive, and the owner of the machine's EPC.
// Every enclave on a machine shares its CPU.
type CPU struct {
	mu       sync.Mutex
	fuseKey  [32]byte
	epcSize  int
	epcUsed  int
	enclaves int

	// now provides wall-clock time for the trusted time source; injectable
	// so virtual-time experiments control it.
	now func() time.Time
}

// NewCPU creates a CPU whose fused keys derive deterministically from seed,
// with the default 128 MB EPC.
func NewCPU(seed string) *CPU {
	c := &CPU{epcSize: DefaultEPCSize, now: time.Now}
	c.fuseKey = sha256.Sum256([]byte("sgx-fuse-key:" + seed))
	return c
}

// SetEPCSize overrides the machine EPC limit; tests use small limits to
// exercise paging penalties.
func (c *CPU) SetEPCSize(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epcSize = n
}

// SetTimeSource replaces the wall clock used for trusted time. A nil value
// restores time.Now.
func (c *CPU) SetTimeSource(now func() time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	c.now = now
}

// EPCUsed reports the bytes of EPC currently reserved across all enclaves.
func (c *CPU) EPCUsed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epcUsed
}

// sealKey derives the per-measurement sealing key (MRENCLAVE policy).
func (c *CPU) sealKey(m Measurement) []byte {
	mac := hmac.New(sha256.New, c.fuseKey[:])
	mac.Write([]byte("seal"))
	mac.Write(m[:])
	return mac.Sum(nil)
}

// reportKey derives the symmetric key that MACs local attestation reports.
// On real hardware only enclaves on the same CPU can obtain it; here it
// stays private to the package, and verification goes through CPU or
// Enclave methods.
func (c *CPU) reportKey() []byte {
	mac := hmac.New(sha256.New, c.fuseKey[:])
	mac.Write([]byte("report"))
	return mac.Sum(nil)
}

// Report is a local attestation report (paper §II-C): it binds user data —
// for EndBox, the enclave's freshly generated public key — to a measurement
// on this CPU. The Quoting Enclave verifies reports and converts them into
// remotely verifiable quotes.
type Report struct {
	Measurement Measurement
	UserData    []byte
	MAC         []byte
}

// VerifyReport checks that the report was produced by an enclave running on
// this CPU.
func (c *CPU) VerifyReport(r Report) error {
	mac := hmac.New(sha256.New, c.reportKey())
	mac.Write(r.Measurement[:])
	mac.Write(r.UserData)
	if !hmac.Equal(mac.Sum(nil), r.MAC) {
		return ErrBadReport
	}
	return nil
}

func (c *CPU) signReport(m Measurement, userData []byte) Report {
	mac := hmac.New(sha256.New, c.reportKey())
	mac.Write(m[:])
	mac.Write(userData)
	return Report{
		Measurement: m,
		UserData:    append([]byte(nil), userData...),
		MAC:         mac.Sum(nil),
	}
}
