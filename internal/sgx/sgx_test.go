package sgx

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func testImage() Image {
	return Image{
		Name:     "endbox-client",
		Version:  "1.0.0",
		Code:     []byte("trusted code pages"),
		InitData: []byte("ca public key"),
	}
}

func newTestEnclave(t *testing.T, mode Mode) (*CPU, *Enclave) {
	t.Helper()
	cpu := NewCPU("test-cpu")
	e, err := cpu.CreateEnclave(testImage(), Config{Mode: mode})
	if err != nil {
		t.Fatalf("CreateEnclave: %v", err)
	}
	t.Cleanup(e.Destroy)
	return cpu, e
}

func TestMeasurementDeterministic(t *testing.T) {
	m1 := testImage().Measure()
	m2 := testImage().Measure()
	if m1 != m2 {
		t.Error("measurement not deterministic")
	}
}

func TestMeasurementSensitivity(t *testing.T) {
	base := testImage()
	variants := map[string]Image{
		"name":     {Name: "other", Version: base.Version, Code: base.Code, InitData: base.InitData},
		"version":  {Name: base.Name, Version: "1.0.1", Code: base.Code, InitData: base.InitData},
		"code":     {Name: base.Name, Version: base.Version, Code: []byte("evil"), InitData: base.InitData},
		"initdata": {Name: base.Name, Version: base.Version, Code: base.Code, InitData: []byte("evil ca key")},
	}
	for field, img := range variants {
		if img.Measure() == base.Measure() {
			t.Errorf("changing %s did not change measurement", field)
		}
	}
	// Length-prefix framing: moving a byte across a field boundary must
	// change the measurement.
	a := Image{Name: "ab", Version: "c"}
	b := Image{Name: "a", Version: "bc"}
	if a.Measure() == b.Measure() {
		t.Error("field framing ambiguous: shifted boundary collides")
	}
}

func TestEnclaveLifecycle(t *testing.T) {
	_, e := newTestEnclave(t, ModeSimulation)

	if _, err := e.Ecall("echo", nil); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("ecall before init: err = %v, want ErrNotInitialized", err)
	}
	if err := e.RegisterEcall("echo", func(_ *Ctx, arg any) (any, error) { return arg, nil }); err != nil {
		t.Fatalf("RegisterEcall: %v", err)
	}
	if err := e.Init(); err != nil {
		t.Fatalf("Init: %v", err)
	}
	if err := e.RegisterEcall("late", func(_ *Ctx, arg any) (any, error) { return nil, nil }); err == nil {
		t.Error("RegisterEcall after Init should fail")
	}
	got, err := e.Ecall("echo", []byte("hi"))
	if err != nil {
		t.Fatalf("Ecall: %v", err)
	}
	if !bytes.Equal(got.([]byte), []byte("hi")) {
		t.Errorf("echo returned %v", got)
	}
	if _, err := e.Ecall("missing", nil); !errors.Is(err, ErrUnknownEcall) {
		t.Errorf("unknown ecall: err = %v, want ErrUnknownEcall", err)
	}

	e.Destroy()
	if _, err := e.Ecall("echo", nil); !errors.Is(err, ErrDestroyed) {
		t.Errorf("ecall after destroy: err = %v, want ErrDestroyed", err)
	}
	e.Destroy() // idempotent
}

func TestRegisterValidation(t *testing.T) {
	_, e := newTestEnclave(t, ModeSimulation)
	if err := e.RegisterEcall("nil", nil); err == nil {
		t.Error("nil ecall handler accepted")
	}
	if err := e.RegisterOcall("nil", nil, nil); err == nil {
		t.Error("nil ocall handler accepted")
	}
	ok := func(_ *Ctx, arg any) (any, error) { return nil, nil }
	if err := e.RegisterEcall("dup", ok); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterEcall("dup", ok); err == nil {
		t.Error("duplicate ecall accepted")
	}
}

func TestBoundarySizeLimit(t *testing.T) {
	cpu := NewCPU("limit")
	e, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeSimulation, MaxBoundaryBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if err := e.RegisterEcall("echo", func(_ *Ctx, arg any) (any, error) { return arg, nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ecall("echo", make([]byte, 65)); !errors.Is(err, ErrArgTooLarge) {
		t.Errorf("oversized arg: err = %v, want ErrArgTooLarge", err)
	}
	if _, err := e.Ecall("echo", make([]byte, 64)); err != nil {
		t.Errorf("boundary-sized arg rejected: %v", err)
	}
	if _, err := e.Ecall("echo", "x"); err != nil {
		t.Errorf("string arg: %v", err)
	}
}

func TestOcallAndValidator(t *testing.T) {
	_, e := newTestEnclave(t, ModeSimulation)

	err := e.RegisterOcall("read-config", func(arg any) (any, error) {
		return []byte("ciphertext"), nil
	}, func(res any) error {
		if _, ok := res.([]byte); !ok {
			return fmt.Errorf("expected bytes")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = e.RegisterOcall("iago", func(arg any) (any, error) {
		return -1, nil // hostile result shape
	}, func(res any) error {
		n, ok := res.(int)
		if !ok || n < 0 {
			return fmt.Errorf("negative length from untrusted host")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterEcall("fetch", func(ctx *Ctx, arg any) (any, error) {
		return ctx.Ocall(arg.(string), nil)
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}

	res, err := e.Ecall("fetch", "read-config")
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if !bytes.Equal(res.([]byte), []byte("ciphertext")) {
		t.Errorf("fetch returned %v", res)
	}
	if _, err := e.Ecall("fetch", "iago"); err == nil {
		t.Error("Iago-style ocall result passed the validator")
	}
	if _, err := e.Ecall("fetch", "unregistered"); !errors.Is(err, ErrUnknownOcall) {
		t.Errorf("unknown ocall: err = %v, want ErrUnknownOcall", err)
	}
}

func TestStatsCounting(t *testing.T) {
	_, e := newTestEnclave(t, ModeSimulation)
	if err := e.RegisterOcall("noop", func(any) (any, error) { return nil, nil }, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterEcall("work", func(ctx *Ctx, arg any) (any, error) {
		for i := 0; i < 3; i++ {
			if _, err := ctx.Ocall("noop", nil); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if _, err := e.Ecall("work", nil); err != nil {
			t.Fatal(err)
		}
	}
	s := e.Stats()
	if s.Ecalls != rounds {
		t.Errorf("Ecalls = %d, want %d", s.Ecalls, rounds)
	}
	if s.Ocalls != 3*rounds {
		t.Errorf("Ocalls = %d, want %d", s.Ocalls, 3*rounds)
	}
	wantTrans := uint64(2*rounds + 2*3*rounds)
	if s.Transitions != wantTrans {
		t.Errorf("Transitions = %d, want %d", s.Transitions, wantTrans)
	}
}

// TestEcallBytesSharesEcallChecks drives the boxed and the byte-typed entry
// through the same sequence: both must refuse and count identically, because
// both run through enter/exit.
func TestEcallBytesSharesEcallChecks(t *testing.T) {
	const limit = 64
	grow := make([]byte, limit+1)
	for _, entry := range []struct {
		name     string
		register func(e *Enclave, name string, result []byte) error
		call     func(e *Enclave, name string, arg []byte) ([]byte, error)
	}{
		{"Ecall", func(e *Enclave, name string, result []byte) error {
			return e.RegisterEcall(name, func(_ *Ctx, arg any) (any, error) {
				if result != nil {
					return result, nil
				}
				return arg, nil
			})
		}, func(e *Enclave, name string, arg []byte) ([]byte, error) {
			res, err := e.Ecall(name, arg)
			out, _ := res.([]byte)
			return out, err
		}},
		{"EcallBytes", func(e *Enclave, name string, result []byte) error {
			return e.RegisterBytesEcall(name, func(_ *Ctx, arg []byte) ([]byte, error) {
				if result != nil {
					return result, nil
				}
				return arg, nil
			})
		}, (*Enclave).EcallBytes},
	} {
		t.Run(entry.name, func(t *testing.T) {
			e, err := NewCPU("shared").CreateEnclave(testImage(), Config{Mode: ModeSimulation, MaxBoundaryBytes: limit})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Destroy()
			if err := entry.register(e, "echo", nil); err != nil {
				t.Fatal(err)
			}
			if err := entry.register(e, "grow", grow); err != nil {
				t.Fatal(err)
			}
			if _, err := entry.call(e, "echo", nil); !errors.Is(err, ErrNotInitialized) {
				t.Errorf("before Init: err = %v, want ErrNotInitialized", err)
			}
			if err := e.Init(); err != nil {
				t.Fatal(err)
			}
			if _, err := entry.call(e, "missing", nil); !errors.Is(err, ErrUnknownEcall) {
				t.Errorf("unknown name: err = %v, want ErrUnknownEcall", err)
			}
			if _, err := entry.call(e, "echo", make([]byte, limit+1)); !errors.Is(err, ErrArgTooLarge) {
				t.Errorf("oversized argument: err = %v, want ErrArgTooLarge", err)
			}
			if s := e.Stats(); s.Ecalls != 0 || s.Transitions != 0 {
				t.Errorf("refused calls crossed the boundary: %+v", s)
			}
			if _, err := entry.call(e, "grow", nil); !errors.Is(err, ErrArgTooLarge) {
				t.Errorf("oversized result: err = %v, want ErrArgTooLarge", err)
			}
			before := e.Stats()
			got, err := entry.call(e, "echo", make([]byte, limit))
			if err != nil || len(got) != limit {
				t.Errorf("boundary-sized call = %d bytes, %v", len(got), err)
			}
			after := e.Stats()
			if after.Ecalls-before.Ecalls != 1 || after.Transitions-before.Transitions != 2 {
				t.Errorf("one call moved Ecalls by %d and Transitions by %d, want 1 and 2",
					after.Ecalls-before.Ecalls, after.Transitions-before.Transitions)
			}
			e.Destroy()
			if _, err := entry.call(e, "echo", nil); !errors.Is(err, ErrDestroyed) {
				t.Errorf("after Destroy: err = %v, want ErrDestroyed", err)
			}
		})
	}
}

// TestEcallKindsShareOneTable: a name belongs to one kind. It cannot be
// registered under both, and the other kind's entry does not know it.
func TestEcallKindsShareOneTable(t *testing.T) {
	_, e := newTestEnclave(t, ModeSimulation)
	boxed := func(_ *Ctx, arg any) (any, error) { return arg, nil }
	typed := func(_ *Ctx, arg []byte) ([]byte, error) { return arg, nil }
	if err := e.RegisterBytesEcall("nil", nil); err == nil {
		t.Error("nil byte-typed handler accepted")
	}
	if err := e.RegisterEcall("boxed", boxed); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterBytesEcall("typed", typed); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterBytesEcall("boxed", typed); err == nil {
		t.Error("byte-typed registration reused a boxed ecall's name")
	}
	if err := e.RegisterEcall("typed", boxed); err == nil {
		t.Error("boxed registration reused a byte-typed ecall's name")
	}
	if err := e.RegisterBytesEcall("typed", typed); err == nil {
		t.Error("duplicate byte-typed ecall accepted")
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterBytesEcall("late", typed); err == nil {
		t.Error("RegisterBytesEcall after Init should fail")
	}
	if _, err := e.Ecall("typed", []byte("x")); !errors.Is(err, ErrUnknownEcall) {
		t.Errorf("Ecall on a byte-typed name: err = %v, want ErrUnknownEcall", err)
	}
	if _, err := e.EcallBytes("boxed", []byte("x")); !errors.Is(err, ErrUnknownEcall) {
		t.Errorf("EcallBytes on a boxed name: err = %v, want ErrUnknownEcall", err)
	}
	if s := e.Stats(); s.Ecalls != 0 || s.Transitions != 0 {
		t.Errorf("cross-kind calls crossed the boundary: %+v", s)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EcallBytes("typed", nil); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("EcallBytes = %.1f allocs per crossing, want 0", allocs)
	}
}

// enclaveWithSealing wires up a seal/unseal ecall pair for the tests below.
func enclaveWithSealing(t *testing.T, cpu *CPU, img Image) *Enclave {
	t.Helper()
	e, err := cpu.CreateEnclave(img, Config{Mode: ModeSimulation})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Destroy)
	if err := e.RegisterEcall("seal", func(ctx *Ctx, arg any) (any, error) {
		return ctx.Seal(arg.([]byte), []byte("aad"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterEcall("unseal", func(ctx *Ctx, arg any) (any, error) {
		return ctx.Unseal(arg.([]byte), []byte("aad"))
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSealUnsealRoundTrip(t *testing.T) {
	cpu := NewCPU("seal-cpu")
	e := enclaveWithSealing(t, cpu, testImage())

	secret := []byte("vpn private key material")
	blob, err := e.Ecall("seal", secret)
	if err != nil {
		t.Fatalf("seal: %v", err)
	}
	pt, err := e.Ecall("unseal", blob)
	if err != nil {
		t.Fatalf("unseal: %v", err)
	}
	if !bytes.Equal(pt.([]byte), secret) {
		t.Error("unsealed data differs")
	}
}

func TestSealBoundToMeasurementAndCPU(t *testing.T) {
	cpu := NewCPU("seal-cpu")
	e1 := enclaveWithSealing(t, cpu, testImage())

	blob, err := e1.Ecall("seal", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}

	otherImg := testImage()
	otherImg.Version = "2.0.0"
	e2 := enclaveWithSealing(t, cpu, otherImg)
	if _, err := e2.Ecall("unseal", blob); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("different measurement unsealed: err = %v", err)
	}

	otherCPU := NewCPU("other-cpu")
	e3 := enclaveWithSealing(t, otherCPU, testImage())
	if _, err := e3.Ecall("unseal", blob); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("different CPU unsealed: err = %v", err)
	}
}

func TestSealPropertyRoundTrip(t *testing.T) {
	cpu := NewCPU("prop")
	e := enclaveWithSealing(t, cpu, testImage())
	f := func(data []byte) bool {
		if len(data) > 4096 {
			data = data[:4096]
		}
		blob, err := e.Ecall("seal", append([]byte(nil), data...))
		if err != nil {
			return false
		}
		pt, err := e.Ecall("unseal", blob)
		if err != nil {
			return false
		}
		return bytes.Equal(pt.([]byte), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSealCorruptBlob(t *testing.T) {
	cpu := NewCPU("corrupt")
	e := enclaveWithSealing(t, cpu, testImage())
	blob, err := e.Ecall("seal", []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), blob.([]byte)...)
	bad[len(bad)-1] ^= 0x01
	if _, err := e.Ecall("unseal", bad); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("corrupt blob: err = %v, want ErrSealCorrupt", err)
	}
	if _, err := e.Ecall("unseal", []byte("short")); !errors.Is(err, ErrSealCorrupt) {
		t.Errorf("short blob: err = %v, want ErrSealCorrupt", err)
	}
}

func TestReportVerification(t *testing.T) {
	cpu, e := newTestEnclave(t, ModeSimulation)
	if err := e.RegisterEcall("report", func(ctx *Ctx, arg any) (any, error) {
		return ctx.CreateReport(arg.([]byte)), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	res, err := e.Ecall("report", []byte("enclave public key"))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.(Report)
	if rep.Measurement != e.Measurement() {
		t.Error("report carries wrong measurement")
	}
	if err := cpu.VerifyReport(rep); err != nil {
		t.Errorf("VerifyReport: %v", err)
	}

	tampered := rep
	tampered.UserData = []byte("attacker public key")
	if err := cpu.VerifyReport(tampered); !errors.Is(err, ErrBadReport) {
		t.Errorf("tampered report: err = %v, want ErrBadReport", err)
	}

	otherCPU := NewCPU("other")
	if err := otherCPU.VerifyReport(rep); !errors.Is(err, ErrBadReport) {
		t.Errorf("cross-CPU report verified: err = %v", err)
	}
}

func TestTrustedTimeMonotonic(t *testing.T) {
	cpu, e := newTestEnclave(t, ModeSimulation)
	base := time.Unix(1000, 0)
	seq := []time.Time{
		base,
		base.Add(5 * time.Second),
		base.Add(2 * time.Second), // host rolls the clock back
		base.Add(6 * time.Second),
	}
	i := 0
	cpu.SetTimeSource(func() time.Time {
		ts := seq[i]
		if i < len(seq)-1 {
			i++
		}
		return ts
	})
	if err := e.RegisterEcall("time", func(ctx *Ctx, arg any) (any, error) {
		return ctx.TrustedTime(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	var prev time.Time
	for range seq {
		res, err := e.Ecall("time", nil)
		if err != nil {
			t.Fatal(err)
		}
		now := res.(time.Time)
		if now.Before(prev) {
			t.Fatalf("trusted time went backwards: %v < %v", now, prev)
		}
		prev = now
	}
	if got := e.Stats().TimeReads; got != uint64(len(seq)) {
		t.Errorf("TimeReads = %d, want %d", got, len(seq))
	}
}

func TestEPCAccountingAndPaging(t *testing.T) {
	cpu := NewCPU("epc")
	cpu.SetEPCSize(100)

	e1, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeHardware, HeapSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer e1.Destroy()
	if cpu.EPCUsed() != 60 {
		t.Errorf("EPCUsed = %d, want 60", cpu.EPCUsed())
	}
	if e1.Stats().PagedBytes != 0 {
		t.Error("no paging expected within limit")
	}

	e2, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeHardware, HeapSize: 60})
	if err != nil {
		t.Fatal(err)
	}
	if got := e2.Stats().PagedBytes; got != 20 {
		t.Errorf("PagedBytes = %d, want 20 (120-100)", got)
	}
	e2.Destroy()
	if cpu.EPCUsed() != 60 {
		t.Errorf("EPCUsed after destroy = %d, want 60", cpu.EPCUsed())
	}
}

func TestAllocEPCWithinEcall(t *testing.T) {
	cpu := NewCPU("alloc")
	cpu.SetEPCSize(100)
	e, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeHardware, HeapSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if err := e.RegisterEcall("grow", func(ctx *Ctx, arg any) (any, error) {
		return nil, ctx.AllocEPC(arg.(int))
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterEcall("shrink", func(ctx *Ctx, arg any) (any, error) {
		ctx.FreeEPC(arg.(int))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}

	if _, err := e.Ecall("grow", 40); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PagedBytes; got != 0 {
		t.Errorf("PagedBytes = %d, want 0", got)
	}
	if _, err := e.Ecall("grow", 30); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().PagedBytes; got != 20 {
		t.Errorf("PagedBytes = %d, want 20", got)
	}
	if _, err := e.Ecall("shrink", 70); err != nil {
		t.Fatal(err)
	}
	if cpu.EPCUsed() != 50 {
		t.Errorf("EPCUsed = %d, want 50", cpu.EPCUsed())
	}
	if _, err := e.Ecall("grow", -1); err == nil {
		t.Error("negative allocation accepted")
	}
}

func TestSimulationModeSkipsEPCAndBurn(t *testing.T) {
	cpu := NewCPU("sim")
	cpu.SetEPCSize(10)
	e, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeSimulation, HeapSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if cpu.EPCUsed() != 0 {
		t.Error("simulation mode should not reserve EPC")
	}
	if e.Stats().PagedBytes != 0 {
		t.Error("simulation mode should not page")
	}
}

func TestHardwareBurnConsumesTime(t *testing.T) {
	cpu := NewCPU("burn")
	cost := 200 * time.Microsecond
	e, err := cpu.CreateEnclave(testImage(), Config{
		Mode: ModeHardware, TransitionCost: cost, BurnCPU: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Destroy()
	if err := e.RegisterEcall("noop", func(*Ctx, any) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if err := e.Init(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := e.Ecall("noop", nil); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if want := time.Duration(2*n) * cost; elapsed < want {
		t.Errorf("elapsed %v < expected minimum burn %v", elapsed, want)
	}
}

func TestInvalidMode(t *testing.T) {
	cpu := NewCPU("bad")
	if _, err := cpu.CreateEnclave(testImage(), Config{}); err == nil {
		t.Error("zero mode accepted")
	}
	if got := ModeSimulation.String(); got != "SIM" {
		t.Errorf("ModeSimulation.String() = %q", got)
	}
	if got := ModeHardware.String(); got != "SGX" {
		t.Errorf("ModeHardware.String() = %q", got)
	}
}

func BenchmarkEcallSimulation(b *testing.B) {
	cpu := NewCPU("bench")
	e, err := cpu.CreateEnclave(testImage(), Config{Mode: ModeSimulation})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Destroy()
	if err := e.RegisterEcall("noop", func(*Ctx, any) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	if err := e.Init(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := e.Ecall("noop", nil); err != nil {
			b.Fatal(err)
		}
	}
}
