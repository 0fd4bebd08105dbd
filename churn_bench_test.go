package endbox

// Session-churn benchmarks for the lifecycle engine: the cost of one full
// client join/leave cycle (attestation, enrolment, VPN handshake) against
// the fast-resume path (one ticket open + signature check, no attestation,
// no key exchange). The gap between the two is the point of resumption
// tickets at million-client scale: a fleet restarting after a power event
// re-establishes sessions at the resume cost, not the cold cost.
// The repo benchmark (benchmark/) tracks both as join_ms_p50, resume_ms_p50
// and churn_allocs_per_op on every workload.

import (
	"context"
	"testing"

	"endbox/mbox"
)

func BenchmarkChurn(b *testing.B) {
	ctx := context.Background()
	spec := ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}

	// cold: AddClient + RemoveClient per iteration — quote, enrolment,
	// certificate walk, ECDH, plus enclave construction and teardown.
	b.Run("cold", func(b *testing.B) {
		d, err := New()
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.AddClient(ctx, "churn", spec); err != nil {
				b.Fatal(err)
			}
			d.RemoveClient("churn")
		}
	})

	// resume: ResumeClient per iteration from one snapshot — the enclave
	// is rebuilt from the sealed identity and the session from the
	// resumption ticket; each cycle replaces the previous incarnation, so
	// the loop is the reconnect-after-crash path in steady state.
	b.Run("resume", func(b *testing.B) {
		d, err := New(WithSessionTTL(0))
		if err != nil {
			b.Fatal(err)
		}
		defer d.Close()
		if _, err := d.AddClient(ctx, "churn", spec); err != nil {
			b.Fatal(err)
		}
		state, err := d.ResumeState("churn")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := d.ResumeClient(ctx, state, spec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
