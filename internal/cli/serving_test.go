package cli_test

import (
	"slices"
	"strings"
	"testing"

	"byzex/internal/cli"
	"byzex/internal/core"
	"byzex/internal/ident"
)

func TestTemplateResolveDefaults(t *testing.T) {
	cfg, warn, err := cli.Template{
		Protocol: "alg1", Adversary: "none", Scheme: "hmac", T: 2, Seed: 9,
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("unexpected warning %q", warn)
	}
	if cfg.N != 5 || cfg.T != 2 || cfg.Seed != 9 {
		t.Fatalf("resolved n=%d t=%d seed=%d, want 5/2/9", cfg.N, cfg.T, cfg.Seed)
	}
	if cfg.Protocol == nil || cfg.Scheme == nil {
		t.Fatal("protocol or scheme not resolved")
	}
	if cfg.Adversary != nil {
		t.Fatal("adversary 'none' resolved to non-nil")
	}
}

func TestTemplateResolveFaultsCoverAffected(t *testing.T) {
	cfg, warn, err := cli.Template{
		Protocol: "alg1", Adversary: "none", Scheme: "hmac", T: 3,
		Faults: "crash=1@2;drop=2->4@1-3",
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if warn != "" {
		t.Fatalf("in-budget plan warned: %q", warn)
	}
	if cfg.Faults == nil {
		t.Fatal("fault plan not compiled")
	}
	setup, err := core.NewSetup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := setup.Faulty.Sorted(); !slices.Equal(got, []ident.ProcID{1, 2}) {
		t.Fatalf("faulty %v, want [p1 p2]", got)
	}
}

func TestTemplateResolveOverBudgetWarns(t *testing.T) {
	_, warn, err := cli.Template{
		Protocol: "alg1", Adversary: "none", Scheme: "hmac", T: 2,
		Faults: "crash=0@2;crash=1@2;crash=2@2",
	}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warn, "stall") {
		t.Fatalf("over-budget plan resolved without a warning (warn=%q)", warn)
	}
}

func TestTemplateResolveErrors(t *testing.T) {
	if _, _, err := (cli.Template{Protocol: "no-such", Adversary: "none", Scheme: "hmac", T: 2}).Resolve(); err == nil {
		t.Fatal("unknown protocol resolved")
	}
	if _, _, err := (cli.Template{Protocol: "alg1", Adversary: "none", Scheme: "hmac", T: 2, Faults: "bogus"}).Resolve(); err == nil {
		t.Fatal("bad fault spec resolved")
	}
}
