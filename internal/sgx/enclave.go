package sgx

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// EcallFunc is trusted code invoked across the enclave boundary. The Ctx
// grants access to in-enclave facilities (sealing, trusted time, ocalls).
// Arguments and results cross the boundary by value semantics; the runtime
// enforces the size limit from Config.MaxBoundaryBytes, mirroring the
// boundary sanity checks of paper §IV-B.
type EcallFunc func(ctx *Ctx, arg any) (any, error)

// BytesEcallFunc is an ecall whose argument and result are byte slabs — the
// shape of the per-packet interface, and the only one a boundary that is a
// real process or hardware edge can carry. Nothing is boxed on the way in or
// out, so a crossing allocates nothing.
type BytesEcallFunc func(ctx *Ctx, arg []byte) ([]byte, error)

// ecall is one entry of the interface table: exactly one of the two handler
// shapes is set, by the registration call that installed it.
type ecall struct {
	fn      EcallFunc
	bytesFn BytesEcallFunc
}

// OcallFunc is untrusted code an ecall may invoke (e.g. reading an encrypted
// configuration file from disk). Its results are untrusted: enclave code
// must validate them, and the runtime applies the registered validator to
// mitigate Iago-style attacks (paper §V-A "Interface attacks").
type OcallFunc func(arg any) (any, error)

// OcallValidator checks an ocall result before it is handed to enclave code.
type OcallValidator func(result any) error

// Config controls enclave runtime behaviour.
type Config struct {
	// Mode selects simulation or hardware semantics. Required.
	Mode Mode
	// HeapSize is the EPC reservation for this enclave in bytes. Zero
	// selects a modest 32 MB default.
	HeapSize int
	// TransitionCost is the CPU time burned per boundary crossing in
	// hardware mode when BurnCPU is set. Zero selects
	// DefaultTransitionCost.
	TransitionCost time.Duration
	// BurnCPU makes hardware-mode transitions consume real CPU time so that
	// wall-clock benchmarks (testing.B) observe SGX overhead. Virtual-time
	// experiments leave it false and charge Stats().Transitions to a cost
	// model instead.
	BurnCPU bool
	// MaxBoundaryBytes bounds any single argument or result crossing the
	// boundary. Zero selects 256 KB, comfortably above the largest VPN
	// frame but small enough to stop absurd inputs at the interface.
	MaxBoundaryBytes int
}

func (c Config) withDefaults() Config {
	if c.HeapSize == 0 {
		c.HeapSize = 32 << 20
	}
	if c.TransitionCost == 0 {
		c.TransitionCost = DefaultTransitionCost
	}
	if c.MaxBoundaryBytes == 0 {
		c.MaxBoundaryBytes = 256 << 10
	}
	return c
}

// Stats counts boundary and memory events for a single enclave. The
// benchmark cost model converts these into virtual time; the ablation in
// §V-G(1) compares transition counts between the batched and naive designs.
type Stats struct {
	Ecalls      uint64
	Ocalls      uint64
	Transitions uint64 // total boundary crossings (2 per completed ecall/ocall)
	PagedBytes  uint64 // bytes allocated beyond the machine EPC limit
	TimeReads   uint64 // trusted time samples taken
}

// Enclave is a loaded, measured enclave instance.
type Enclave struct {
	cpu     *CPU
	cfg     Config
	meas    Measurement
	sealGCM cipher.AEAD
	ctx     Ctx // the one Ctx every handler receives; points back at this enclave

	mu         sync.Mutex
	initDone   bool
	destroyed  bool
	ecalls     map[string]ecall
	ocalls     map[string]OcallFunc
	validators map[string]OcallValidator

	// execMu serialises ecall handler execution: the enclave is modelled
	// with a single TCS, so in-enclave state needs no internal locking and
	// concurrent callers queue at the boundary — making the whole client
	// data path safe for concurrent use. Ocalls issued from within an ecall
	// run under the same token (no re-acquisition, no self-deadlock).
	execMu sync.Mutex

	ecallCount  atomic.Uint64
	ocallCount  atomic.Uint64
	transitions atomic.Uint64
	pagedBytes  atomic.Uint64
	timeReads   atomic.Uint64

	lastTime   atomic.Int64 // monotonic trusted time floor (ns since epoch)
	epcFromCPU int
}

// Ctx is passed to ecall handlers and exposes in-enclave facilities.
type Ctx struct {
	e *Enclave
}

// CreateEnclave loads an image onto the CPU, reserving EPC for its heap.
// The enclave starts uninitialised; callers register ecalls/ocalls and then
// call Init, mirroring the SDK's create/initialise life cycle.
func (c *CPU) CreateEnclave(img Image, cfg Config) (*Enclave, error) {
	if cfg.Mode != ModeSimulation && cfg.Mode != ModeHardware {
		return nil, fmt.Errorf("sgx: invalid mode %d", cfg.Mode)
	}
	cfg = cfg.withDefaults()
	meas := img.Measure()

	block, err := aes.NewCipher(c.sealKey(meas))
	if err != nil {
		return nil, fmt.Errorf("sgx: derive seal key: %w", err)
	}
	gcm, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("sgx: seal AEAD: %w", err)
	}

	e := &Enclave{
		cpu:        c,
		cfg:        cfg,
		meas:       meas,
		sealGCM:    gcm,
		ecalls:     make(map[string]ecall),
		ocalls:     make(map[string]OcallFunc),
		validators: make(map[string]OcallValidator),
	}
	e.ctx.e = e

	// Reserve EPC. In hardware mode, allocation beyond the machine limit is
	// still possible (EPC paging) but every byte beyond the limit counts as
	// paged, the substantial performance penalty the paper cites (§II-C).
	c.mu.Lock()
	if cfg.Mode == ModeHardware {
		newUsed := c.epcUsed + cfg.HeapSize
		if newUsed > c.epcSize {
			paged := newUsed - c.epcSize
			if c.epcUsed > c.epcSize {
				paged = cfg.HeapSize
			}
			e.pagedBytes.Add(uint64(paged))
		}
		c.epcUsed += cfg.HeapSize
		e.epcFromCPU = cfg.HeapSize
	}
	c.enclaves++
	c.mu.Unlock()

	return e, nil
}

// Measurement returns the enclave's code identity.
func (e *Enclave) Measurement() Measurement { return e.meas }

// MaxBoundaryBytes reports the per-argument boundary limit, letting
// callers size batched arguments (ecall slabs) to what one crossing can
// carry instead of discovering the limit by failing.
func (e *Enclave) MaxBoundaryBytes() int { return e.cfg.MaxBoundaryBytes }

// Mode reports the execution mode the enclave was created with.
func (e *Enclave) Mode() Mode { return e.cfg.Mode }

// RegisterEcall installs trusted code reachable from outside. Registration
// is only allowed before Init, matching the static ecall table an SGX
// binary declares in its EDL file.
func (e *Enclave) RegisterEcall(name string, fn EcallFunc) error {
	return e.register(name, ecall{fn: fn})
}

// RegisterBytesEcall installs a byte-typed ecall, reachable through
// EcallBytes only. Both kinds share one table, so a name can be registered
// once.
func (e *Enclave) RegisterBytesEcall(name string, fn BytesEcallFunc) error {
	return e.register(name, ecall{bytesFn: fn})
}

func (e *Enclave) register(name string, h ecall) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.destroyed:
		return ErrDestroyed
	case e.initDone:
		return fmt.Errorf("sgx: cannot register ecall %q after init", name)
	case h.fn == nil && h.bytesFn == nil:
		return fmt.Errorf("sgx: nil handler for ecall %q", name)
	}
	if _, dup := e.ecalls[name]; dup {
		return fmt.Errorf("sgx: duplicate ecall %q", name)
	}
	e.ecalls[name] = h
	return nil
}

// RegisterOcall installs untrusted code callable from inside the enclave,
// with an optional validator applied to its results before trusted code
// sees them. A nil validator accepts any result.
func (e *Enclave) RegisterOcall(name string, fn OcallFunc, validate OcallValidator) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.destroyed:
		return ErrDestroyed
	case e.initDone:
		return fmt.Errorf("sgx: cannot register ocall %q after init", name)
	case fn == nil:
		return fmt.Errorf("sgx: nil handler for ocall %q", name)
	}
	if _, dup := e.ocalls[name]; dup {
		return fmt.Errorf("sgx: duplicate ocall %q", name)
	}
	e.ocalls[name] = fn
	if validate != nil {
		e.validators[name] = validate
	}
	return nil
}

// Init finalises the interface table and makes the enclave callable.
func (e *Enclave) Init() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.destroyed {
		return ErrDestroyed
	}
	e.initDone = true
	return nil
}

// Destroy tears the enclave down and releases its EPC reservation. Further
// calls fail with ErrDestroyed. An adversary controlling the host can always
// do this — the paper's DoS discussion (§V-A) — costing the client its own
// connectivity and nothing else.
func (e *Enclave) Destroy() {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return
	}
	e.destroyed = true
	e.mu.Unlock()

	e.cpu.mu.Lock()
	e.cpu.epcUsed -= e.epcFromCPU
	e.cpu.enclaves--
	e.cpu.mu.Unlock()
}

// Ecall crosses into the enclave. It validates the interface (known ecall,
// initialised, not destroyed, bounded argument size) and charges the
// transition cost in hardware mode. A name registered byte-typed is not
// part of this interface: it fails with ErrUnknownEcall.
func (e *Enclave) Ecall(name string, arg any) (any, error) {
	h, err := e.enter(name, false, boundaryLen(arg))
	if err != nil {
		return nil, err
	}
	res, err := h.fn(&e.ctx, arg)
	if err := e.exit(name, boundaryLen(res), err); err != nil {
		return nil, err
	}
	return res, nil
}

// EcallBytes is Ecall for a byte-typed ecall: the same checks, lock,
// transition cost and counters (enter and exit are shared), without boxing
// the slabs into interface values.
func (e *Enclave) EcallBytes(name string, arg []byte) ([]byte, error) {
	h, err := e.enter(name, true, len(arg))
	if err != nil {
		return nil, err
	}
	res, err := h.bytesFn(&e.ctx, arg)
	if err := e.exit(name, len(res), err); err != nil {
		return nil, err
	}
	return res, nil
}

// enter is the one way into the enclave: it validates the interface, counts
// the ecall and returns the handler with the execution lock held and EENTER
// charged. Every successful enter must be paired with exit.
func (e *Enclave) enter(name string, bytesTyped bool, argLen int) (ecall, error) {
	e.mu.Lock()
	if e.destroyed {
		e.mu.Unlock()
		return ecall{}, ErrDestroyed
	}
	if !e.initDone {
		e.mu.Unlock()
		return ecall{}, ErrNotInitialized
	}
	h, ok := e.ecalls[name]
	e.mu.Unlock()
	if !ok || bytesTyped != (h.bytesFn != nil) {
		return ecall{}, fmt.Errorf("%w: %q", ErrUnknownEcall, name)
	}
	if err := e.checkBoundarySize(argLen); err != nil {
		return ecall{}, fmt.Errorf("ecall %q: %w", name, err)
	}
	e.ecallCount.Add(1)
	e.execMu.Lock()
	e.crossBoundary() // EENTER
	return h, nil
}

// exit is the one way out: it charges EEXIT, releases the execution lock
// and bounds the result. err is the handler's own error, passed through.
func (e *Enclave) exit(name string, resLen int, err error) error {
	e.crossBoundary() // EEXIT
	e.execMu.Unlock()
	if err != nil {
		return err
	}
	if err := e.checkBoundarySize(resLen); err != nil {
		return fmt.Errorf("ecall %q result: %w", name, err)
	}
	return nil
}

// Ocall leaves the enclave from within an ecall handler. Results pass the
// registered validator before being returned to trusted code.
func (ctx *Ctx) Ocall(name string, arg any) (any, error) {
	e := ctx.e
	e.mu.Lock()
	fn, ok := e.ocalls[name]
	validate := e.validators[name]
	e.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownOcall, name)
	}
	if err := e.checkBoundarySize(boundaryLen(arg)); err != nil {
		return nil, fmt.Errorf("ocall %q: %w", name, err)
	}

	e.ocallCount.Add(1)
	e.crossBoundary() // OEXIT
	res, err := fn(arg)
	e.crossBoundary() // ORESUME
	if err != nil {
		return nil, err
	}
	if err := e.checkBoundarySize(boundaryLen(res)); err != nil {
		return nil, fmt.Errorf("ocall %q result: %w", name, err)
	}
	if validate != nil {
		if err := validate(res); err != nil {
			return nil, fmt.Errorf("ocall %q rejected by boundary check: %w", name, err)
		}
	}
	return res, nil
}

// Measurement lets trusted code read its own identity (used when building
// attestation reports).
func (ctx *Ctx) Measurement() Measurement { return ctx.e.meas }

// boundaryLen is the byte length of a value crossing the boundary. Non-byte
// values represent in-process handles and count as empty (the real system
// passes pointers that the checked wrappers validate; here type safety
// already rules out wild pointers).
func boundaryLen(v any) int {
	switch b := v.(type) {
	case []byte:
		return len(b)
	case string:
		return len(b)
	}
	return 0
}

// checkBoundarySize bounds a byte payload crossing the boundary.
func (e *Enclave) checkBoundarySize(n int) error {
	if n > e.cfg.MaxBoundaryBytes {
		return fmt.Errorf("%w: %d > %d bytes", ErrArgTooLarge, n, e.cfg.MaxBoundaryBytes)
	}
	return nil
}

// crossBoundary records one transition and, in hardware mode with BurnCPU,
// consumes the configured CPU time.
func (e *Enclave) crossBoundary() {
	e.transitions.Add(1)
	if e.cfg.Mode != ModeHardware || !e.cfg.BurnCPU {
		return
	}
	deadline := time.Now().Add(e.cfg.TransitionCost)
	for time.Now().Before(deadline) {
		// Busy-wait: an enclave transition does not yield the CPU.
	}
}

// Stats returns a snapshot of boundary and memory counters.
func (e *Enclave) Stats() Stats {
	return Stats{
		Ecalls:      e.ecallCount.Load(),
		Ocalls:      e.ocallCount.Load(),
		Transitions: e.transitions.Load(),
		PagedBytes:  e.pagedBytes.Load(),
		TimeReads:   e.timeReads.Load(),
	}
}

// Seal encrypts data under the enclave's sealing key (MRENCLAVE policy):
// only an enclave with the same measurement on the same CPU can unseal it.
// EndBox seals the generated key pair and CA certificate so attestation
// happens only once per machine (paper §III-C step 7).
func (ctx *Ctx) Seal(plaintext, aad []byte) ([]byte, error) {
	e := ctx.e
	nonce := make([]byte, e.sealGCM.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("sgx: seal nonce: %w", err)
	}
	return e.sealGCM.Seal(nonce, nonce, plaintext, aad), nil
}

// Unseal reverses Seal. Blobs sealed by a different measurement or CPU fail
// with ErrSealCorrupt.
func (ctx *Ctx) Unseal(blob, aad []byte) ([]byte, error) {
	e := ctx.e
	ns := e.sealGCM.NonceSize()
	if len(blob) < ns {
		return nil, ErrSealCorrupt
	}
	pt, err := e.sealGCM.Open(nil, blob[:ns], blob[ns:], aad)
	if err != nil {
		return nil, ErrSealCorrupt
	}
	return pt, nil
}

// CreateReport produces a local attestation report binding userData to this
// enclave's measurement on this CPU (paper Fig. 4 step 2).
func (ctx *Ctx) CreateReport(userData []byte) Report {
	return ctx.e.cpu.signReport(ctx.e.meas, userData)
}

// TrustedTime returns a monotonically non-decreasing timestamp from the
// platform's trusted time service. Each call is counted: the paper's
// TrustedSplitter element samples time only every N packets because these
// calls are expensive (§V-B).
func (ctx *Ctx) TrustedTime() time.Time {
	e := ctx.e
	e.timeReads.Add(1)
	e.cpu.mu.Lock()
	now := e.cpu.now()
	e.cpu.mu.Unlock()
	ns := now.UnixNano()
	for {
		prev := e.lastTime.Load()
		if ns <= prev {
			return time.Unix(0, prev)
		}
		if e.lastTime.CompareAndSwap(prev, ns) {
			return time.Unix(0, ns)
		}
	}
}

// AllocEPC models an in-enclave allocation beyond the initial heap, tracking
// paging pressure. It never fails in simulation mode.
func (ctx *Ctx) AllocEPC(n int) error {
	e := ctx.e
	if e.cfg.Mode != ModeHardware {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("sgx: negative allocation %d", n)
	}
	e.cpu.mu.Lock()
	defer e.cpu.mu.Unlock()
	newUsed := e.cpu.epcUsed + n
	if newUsed > e.cpu.epcSize {
		over := newUsed - e.cpu.epcSize
		if over > n {
			over = n
		}
		e.pagedBytes.Add(uint64(over))
	}
	e.cpu.epcUsed = newUsed
	e.epcFromCPU += n
	return nil
}

// FreeEPC releases a previous AllocEPC reservation.
func (ctx *Ctx) FreeEPC(n int) {
	e := ctx.e
	if e.cfg.Mode != ModeHardware || n <= 0 {
		return
	}
	e.cpu.mu.Lock()
	defer e.cpu.mu.Unlock()
	if n > e.epcFromCPU {
		n = e.epcFromCPU
	}
	e.cpu.epcUsed -= n
	e.epcFromCPU -= n
}
