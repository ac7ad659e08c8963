package lsp

import (
	"maps"
	"testing"

	"byzex/internal/ident"
	"byzex/internal/sig"
)

func TestPathKeyRoundTrip(t *testing.T) {
	cases := [][]ident.ProcID{
		{0},
		{0, 3},
		{0, 5, 2, 9},
	}
	for _, path := range cases {
		got, err := decodePath(pathKey(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(path) {
			t.Fatalf("length %d != %d", len(got), len(path))
		}
		for i := range path {
			if got[i] != path[i] {
				t.Fatalf("path %v -> %v", path, got)
			}
		}
	}
	if _, err := decodePath("\xff\xff"); err == nil {
		t.Fatal("garbage key decoded")
	}
}

func TestValidPath(t *testing.T) {
	const tr = ident.ProcID(0)
	cases := []struct {
		name      string
		path      []ident.ProcID
		sentPhase int
		from, me  ident.ProcID
		want      bool
	}{
		{"root report", []ident.ProcID{0}, 1, 0, 3, true},
		{"root report wrong len", []ident.ProcID{0, 1}, 1, 0, 3, false},
		{"relay ok", []ident.ProcID{0}, 2, 1, 3, true},
		{"relay wrong length", []ident.ProcID{0}, 3, 1, 3, false},
		{"not from transmitter root", []ident.ProcID{1}, 2, 2, 3, false},
		{"sender already on path", []ident.ProcID{0, 1}, 3, 1, 3, false},
		{"receiver on path", []ident.ProcID{0, 3}, 3, 1, 3, false},
		{"duplicate on path", []ident.ProcID{0, 2, 2}, 4, 1, 3, false},
		{"long relay ok", []ident.ProcID{0, 2, 4}, 4, 1, 3, true},
		{"self relay", []ident.ProcID{0}, 2, 3, 3, false},
	}
	for _, c := range cases {
		if got := validPath(c.path, c.sentPhase, tr, c.from, c.me); got != c.want {
			t.Errorf("%s: validPath = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestResolveMajority(t *testing.T) {
	// Build a node with a hand-crafted EIG tree: n=4, t=1, me=1.
	scheme := sig.NewPlain(4)
	signer, _ := scheme.Signer(1)
	nd := &node{
		cfg: configFor(1, 4, 1, signer, scheme),
		tree: map[string]ident.Value{
			pathKey([]ident.ProcID{0}):    ident.V1,
			pathKey([]ident.ProcID{0, 2}): ident.V1,
			pathKey([]ident.ProcID{0, 3}): ident.V0, // one liar
		},
	}
	if v, ok := nd.Decide(); !ok || v != ident.V1 {
		t.Fatalf("decide = %v, %v; want 1", v, ok)
	}

	// Majority flips when both children lie.
	nd.tree[pathKey([]ident.ProcID{0, 2})] = ident.V0
	if v, _ := nd.Decide(); v != ident.V0 {
		t.Fatalf("decide = %v; want 0", v)
	}
}

func TestResolveEmptyTreeDefaults(t *testing.T) {
	scheme := sig.NewPlain(4)
	signer, _ := scheme.Signer(2)
	nd := &node{cfg: configFor(2, 4, 1, signer, scheme), tree: map[string]ident.Value{}}
	if v, ok := nd.Decide(); !ok || v != ident.V0 {
		t.Fatalf("empty tree decide = %v, %v", v, ok)
	}
}

func TestResolveCountsOwnVoteWhenOmitted(t *testing.T) {
	// A faulty transmitter that omits its value to p1 leaves σ=[p0] out of
	// p1's tree. p1's own vote is then the default V0, exactly as if V0 had
	// arrived: either way the majority is over the same n−|σ| = 4 votes.
	scheme := sig.NewPlain(5)
	signer, _ := scheme.Signer(1)
	relayed := map[string]ident.Value{
		pathKey([]ident.ProcID{0, 2}): ident.V1,
		pathKey([]ident.ProcID{0, 3}): ident.V1,
		pathKey([]ident.ProcID{0, 4}): ident.V0,
	}
	omitted := &node{cfg: configFor(1, 5, 1, signer, scheme), tree: maps.Clone(relayed)}
	relayed[pathKey([]ident.ProcID{0})] = ident.V0
	told := &node{cfg: configFor(1, 5, 1, signer, scheme), tree: relayed}
	got, _ := omitted.Decide()
	if want, _ := told.Decide(); got != want {
		t.Fatalf("σ omitted decides %v, σ=V0 decides %v: the denominators differ", got, want)
	}
}
