package faultnet

import (
	"errors"
	"testing"

	"byzex/internal/ident"
)

// MustParse compiles a literal spec+seed in one call.
func MustParse(s string, seed int64) *Plan {
	spec, err := ParseSpec(s)
	if err != nil {
		panic(err)
	}
	return MustCompile(spec, seed)
}

func TestParseSpecFullExample(t *testing.T) {
	spec, err := ParseSpec("crash=1@3; drop=2->4@2-5/0.5; partition=0,1|5,6@2; delay=3->*@1-2+2; dup=*->0@*; reorder=6->*@4")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Rules) != 6 {
		t.Fatalf("got %d rules, want 6", len(spec.Rules))
	}
	if r := spec.Rules[0]; r.Kind != KCrash || r.Proc != 1 || r.AtPhase != 3 {
		t.Fatalf("crash rule: %+v", r)
	}
	if r := spec.Rules[1]; r.Kind != KDrop || r.From != 2 || r.To != 4 || r.First != 2 || r.Last != 5 || r.Prob != 0.5 {
		t.Fatalf("drop rule: %+v", r)
	}
	if r := spec.Rules[2]; r.Kind != KPartition || !r.GroupA.Has(0) || !r.GroupA.Has(1) || !r.GroupB.Has(5) || !r.GroupB.Has(6) || r.First != 2 || r.Last != 2 {
		t.Fatalf("partition rule: %+v", r)
	}
	if r := spec.Rules[3]; r.Kind != KDelay || r.From != 3 || r.To != ident.None || r.Delay != 2 || r.First != 1 || r.Last != 2 || r.Prob != 1 {
		t.Fatalf("delay rule: %+v", r)
	}
	if r := spec.Rules[4]; r.Kind != KDup || r.From != ident.None || r.To != 0 || r.First != 1 || r.Last != maxPhase {
		t.Fatalf("dup rule: %+v", r)
	}
	if r := spec.Rules[5]; r.Kind != KReorder || r.From != 6 || r.First != 4 || r.Last != 4 {
		t.Fatalf("reorder rule: %+v", r)
	}
	if _, err := Compile(spec, 1); err != nil {
		t.Fatalf("full example does not compile: %v", err)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, s := range []string{
		"nonsense",
		"explode=1->2@1",
		"crash=x@1",
		"crash=1",
		"drop=2-4@1",
		"drop=1->2",
		"delay=1->2@3",
		"delay=1->2@3+x",
		"partition=1|@2",
		"partition=1,2@3",
		"drop=1->2@a-b",
		"drop=1->2@1/zz",
	} {
		if _, err := ParseSpec(s); !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseSpec(%q) = %v, want ErrBadSpec", s, err)
		}
	}
}

func TestCompileValidation(t *testing.T) {
	for name, spec := range map[string]Spec{
		"crash phase zero":    {Rules: []Rule{{Kind: KCrash, Proc: 1, AtPhase: 0}}},
		"double crash":        {Rules: []Rule{{Kind: KCrash, Proc: 1, AtPhase: 2}, {Kind: KCrash, Proc: 1, AtPhase: 3}}},
		"self link":           {Rules: []Rule{{Kind: KDrop, From: 2, To: 2, First: 1, Last: 1, Prob: 1}}},
		"delay zero":          {Rules: []Rule{{Kind: KDelay, From: 1, To: 2, First: 1, Last: 1, Prob: 1, Delay: 0}}},
		"inverted window":     {Rules: []Rule{{Kind: KDrop, From: 1, To: 2, First: 5, Last: 3, Prob: 1}}},
		"window before one":   {Rules: []Rule{{Kind: KDrop, From: 1, To: 2, First: 0, Last: 3, Prob: 1}}},
		"prob zero":           {Rules: []Rule{{Kind: KDrop, From: 1, To: 2, First: 1, Last: 1, Prob: 0}}},
		"prob above one":      {Rules: []Rule{{Kind: KDrop, From: 1, To: 2, First: 1, Last: 1, Prob: 1.5}}},
		"empty group":         {Rules: []Rule{{Kind: KPartition, GroupA: ident.NewSet(1), GroupB: ident.NewSet(), First: 1, Last: 1, Prob: 1}}},
		"overlapping groups":  {Rules: []Rule{{Kind: KPartition, GroupA: ident.NewSet(1, 2), GroupB: ident.NewSet(2, 3), First: 1, Last: 1, Prob: 1}}},
		"unknown kind":        {Rules: []Rule{{Kind: 0, First: 1, Last: 1, Prob: 1}}},
		"same crash repeated": {Rules: []Rule{{Kind: KCrash, Proc: 4, AtPhase: 2}, {Kind: KCrash, Proc: 4, AtPhase: 5}}},
	} {
		if _, err := Compile(spec, 1); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: Compile = %v, want ErrBadSpec", name, err)
		}
	}
	// Re-stating the same crash phase is idempotent, not a conflict.
	if _, err := Compile(Spec{Rules: []Rule{
		{Kind: KCrash, Proc: 4, AtPhase: 2}, {Kind: KCrash, Proc: 4, AtPhase: 2},
	}}, 1); err != nil {
		t.Errorf("idempotent crash restatement rejected: %v", err)
	}
}

func TestNilPlanIsInert(t *testing.T) {
	var p *Plan
	if !p.Empty() {
		t.Error("nil plan not Empty")
	}
	if a := p.FrameAction(1, 0, 1); a.Kind != ActNone {
		t.Errorf("nil plan acts: %+v", a)
	}
	if p.CrashPhase(3) != 0 || p.Crashed(3, 9) {
		t.Error("nil plan crashes")
	}
	if p.CrashSilent(1, 0, 5) != 0 {
		t.Error("nil plan withholds")
	}
	if p.Affected(5).Len() != 0 {
		t.Error("nil plan affects")
	}
	if err := p.CheckBudget(5, 0); err != nil {
		t.Errorf("nil plan over budget: %v", err)
	}
	if c := p.ExpectedCounters(5, 4); c != (Counters{}) {
		t.Errorf("nil plan counts: %+v", c)
	}
}

func TestDeterministicCoin(t *testing.T) {
	const spec = "drop=*->*@*/0.5"
	a := MustParse(spec, 7)
	b := MustParse(spec, 7)
	other := MustParse(spec, 8)
	fired, total, differs := 0, 0, false
	for ph := 1; ph <= 20; ph++ {
		for from := ident.ProcID(0); from < 10; from++ {
			for to := ident.ProcID(0); to < 10; to++ {
				if from == to {
					continue
				}
				got := a.FrameAction(ph, from, to)
				if again := b.FrameAction(ph, from, to); again != got {
					t.Fatalf("same seed diverges at (%d,%v,%v): %+v vs %+v", ph, from, to, got, again)
				}
				if other.FrameAction(ph, from, to) != got {
					differs = true
				}
				total++
				if got.Kind == ActDrop {
					fired++
				}
			}
		}
	}
	if frac := float64(fired) / float64(total); frac < 0.35 || frac > 0.65 {
		t.Errorf("p=0.5 coin fired %d/%d (%.2f), want ≈ half", fired, total, frac)
	}
	if !differs {
		t.Error("seed 7 and seed 8 resolve identically on 1800 frames")
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	p := MustParse("drop=0->2@1-2;dup=0->*@*", 1)
	if a := p.FrameAction(1, 0, 2); a.Kind != ActDrop {
		t.Errorf("phase 1, 0->2: %+v, want drop (first rule)", a)
	}
	if a := p.FrameAction(3, 0, 2); a.Kind != ActDup {
		t.Errorf("phase 3, 0->2: %+v, want dup (drop window over)", a)
	}
	if a := p.FrameAction(1, 0, 1); a.Kind != ActDup {
		t.Errorf("phase 1, 0->1: %+v, want dup (link mismatch on drop)", a)
	}
}

func TestPartitionCutsBothDirections(t *testing.T) {
	p := MustParse("partition=0,1|2,3@2", 1)
	for _, link := range [][2]ident.ProcID{{0, 2}, {2, 0}, {1, 3}, {3, 1}} {
		if a := p.FrameAction(2, link[0], link[1]); a.Kind != ActDrop {
			t.Errorf("partition misses %v->%v: %+v", link[0], link[1], a)
		}
	}
	// Intra-group links and out-of-window phases are untouched.
	if a := p.FrameAction(2, 0, 1); a.Kind != ActNone {
		t.Errorf("partition cuts intra-group link: %+v", a)
	}
	if a := p.FrameAction(3, 0, 2); a.Kind != ActNone {
		t.Errorf("partition fires outside its window: %+v", a)
	}
}

func TestCrashAccounting(t *testing.T) {
	p := MustParse("crash=1@2", 1)
	if p.CrashPhase(1) != 2 || p.CrashPhase(0) != 0 {
		t.Fatalf("crash phases: %d %d", p.CrashPhase(1), p.CrashPhase(0))
	}
	if p.Crashed(1, 1) || !p.Crashed(1, 2) || !p.Crashed(1, 9) {
		t.Fatal("Crashed threshold wrong")
	}
	if got := p.CrashSilent(1, 0, 4); got != 0 {
		t.Errorf("CrashSilent before the crash = %d", got)
	}
	if got := p.CrashSilent(2, 0, 4); got != 1 {
		t.Errorf("CrashSilent after the crash = %d, want 1", got)
	}
	if got := p.CrashSilent(2, 1, 4); got != 0 {
		t.Errorf("CrashSilent for the crashed receiver itself = %d, want 0", got)
	}
}

func TestAffectedAndBudget(t *testing.T) {
	p := MustParse("crash=1@2;drop=0->2@1-2;partition=3|4,5@1", 1)
	affected := p.Affected(6)
	for _, id := range []ident.ProcID{0, 1, 3} {
		if !affected.Has(id) {
			t.Errorf("Affected misses %v", id)
		}
	}
	if affected.Len() != 3 {
		t.Fatalf("Affected = %v, want {0,1,3}", affected.Sorted())
	}
	if err := p.CheckBudget(6, 3); err != nil {
		t.Errorf("in-budget plan rejected: %v", err)
	}
	if err := p.CheckBudget(6, 2); !errors.Is(err, ErrOverBudget) {
		t.Errorf("over-budget plan accepted: %v", err)
	}
	// A wildcard sender taints everybody.
	if got := MustParse("drop=*->3@1", 1).Affected(5).Len(); got != 5 {
		t.Errorf("wildcard-From Affected = %d, want 5", got)
	}
}

func TestExpectedCounters(t *testing.T) {
	// n=4, phases=3, deterministic rules. Processor 1 crashes at phase 2:
	// it sends only in phase 1 and consumes nothing from phase 1 on (its
	// delivery of sending phase ph happens at ph+1 ≥ 2), so links into 1
	// never count and links out of 1 count only for ph=1.
	p := MustParse("crash=1@2;drop=0->2@1-2;dup=3->*@2;delay=2->0@1-3+1", 1)
	got := p.ExpectedCounters(4, 3)
	want := Counters{
		Crashes: 1,
		Drops:   2, // (1,0,2) and (2,0,2)
		Dups:    2, // (2,3,0) and (2,3,2); (2,3,1) suppressed by the crash
		Delays:  3, // (ph,2,0) for ph=1..3
	}
	if got != want {
		t.Fatalf("ExpectedCounters = %+v, want %+v", got, want)
	}
	// A crash beyond the run's phases+1 steps never fires.
	late := MustParse("crash=1@9", 1)
	if c := late.ExpectedCounters(4, 3); c.Crashes != 0 {
		t.Errorf("crash at phase 9 counted in a 3-phase run: %+v", c)
	}
}

// TestPlanDigest pins the fingerprint the journal stores per admission: nil
// digests to 0, equal plans digest equal, and any change to the seed, a
// rule, or a crash schedule moves the digest.
func TestPlanDigest(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Digest() != 0 {
		t.Fatal("nil plan digest not 0")
	}
	const spec = "crash=1@2;drop=0->2@1-2/0.5;partition=0,1|2,3@2"
	a, b := MustParse(spec, 7), MustParse(spec, 7)
	if a.Digest() != b.Digest() || a.Digest() == 0 {
		t.Fatalf("equal plans digest %#x vs %#x", a.Digest(), b.Digest())
	}
	for name, other := range map[string]*Plan{
		"seed":      MustParse(spec, 8),
		"prob":      MustParse("crash=1@2;drop=0->2@1-2/0.6;partition=0,1|2,3@2", 7),
		"crash":     MustParse("crash=1@3;drop=0->2@1-2/0.5;partition=0,1|2,3@2", 7),
		"group":     MustParse("crash=1@2;drop=0->2@1-2/0.5;partition=0,1|2,4@2", 7),
		"rule-gone": MustParse("crash=1@2;drop=0->2@1-2/0.5", 7),
	} {
		if other.Digest() == a.Digest() {
			t.Errorf("%s change kept digest %#x", name, a.Digest())
		}
	}
}
