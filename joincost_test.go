package endbox

import (
	"context"
	"testing"

	"endbox/internal/idps"
	"endbox/mbox"
)

// TestJoinAllocBudget pins what one client costs the per-client path: a
// cold join and a resume of a pipeline without an IDS may allocate a few
// hundred objects (attestation, key exchange, enclave construction), not
// the thousands that anything generated or compiled per fleet — the
// community rule text was the offender — would add to every one of them.
func TestJoinAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	ctx := context.Background()
	spec := ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}
	d, err := New(WithSessionTTL(0))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cold := testing.AllocsPerRun(20, func() {
		if _, err := d.AddClient(ctx, "cold", spec); err != nil {
			t.Fatal(err)
		}
		d.RemoveClient("cold")
	})
	if cold > 600 {
		t.Errorf("AddClient+RemoveClient made %.0f allocations, want at most 600", cold)
	}

	if _, err := d.AddClient(ctx, "churn", spec); err != nil {
		t.Fatal(err)
	}
	state, err := d.ResumeState("churn")
	if err != nil {
		t.Fatal(err)
	}
	resume := testing.AllocsPerRun(20, func() {
		if _, err := d.ResumeClient(ctx, state, spec); err != nil {
			t.Fatal(err)
		}
	})
	if resume > 400 {
		t.Errorf("ResumeClient made %.0f allocations, want at most 400", resume)
	}
	t.Logf("cold join+leave %.0f allocations, resume %.0f", cold, resume)
}

// TestCommunityRuleSetsFreshMap: the community text is generated once and
// shared, the map around it is the caller's to mutate.
func TestCommunityRuleSetsFreshMap(t *testing.T) {
	want := idps.GenerateRuleSet(idps.CommunityRuleCount, 2018)
	first := CommunityRuleSets()
	if len(first) != 1 || first["community"] != want {
		t.Fatalf("CommunityRuleSets() = %d entries, community text differs from GenerateRuleSet(%d, 2018)", len(first), idps.CommunityRuleCount)
	}
	first["community"] = "overwritten"
	first["extra"] = "added"
	if second := CommunityRuleSets(); len(second) != 1 || second["community"] != want {
		t.Error("a caller's mutation of one CommunityRuleSets() map leaked into the next")
	}
}
