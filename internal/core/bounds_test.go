package core_test

import (
	"testing"
	"testing/quick"

	"byzex/internal/core"
)

func TestClosedForms(t *testing.T) {
	cases := []struct {
		name      string
		got, want int
	}{
		{"SigLowerBound(8,3)", core.SigLowerBound(8, 3), 8},
		{"SigLowerBound(100,9)", core.SigLowerBound(100, 9), 250},
		{"MsgLowerBound small t", core.MsgLowerBound(101, 2), 50},
		{"MsgLowerBound big t", core.MsgLowerBound(10, 8), 25},
		{"Alg1MsgUpperBound(4)", core.Alg1MsgUpperBound(4), 40},
		{"Alg1Phases(4)", core.Alg1Phases(4), 6},
		{"Alg2MsgUpperBound(4)", core.Alg2MsgUpperBound(4), 100},
		{"Alg2Phases(4)", core.Alg2Phases(4), 15},
		{"Alg3MsgUpperBound(100,3,12)", core.Alg3MsgUpperBound(100, 3, 12), 200 + 100 + 324},
		{"Alg3Phases(3,12)", core.Alg3Phases(3, 12), 30},
		{"Alg4MsgUpperBound(4)", core.Alg4MsgUpperBound(4), 144},
		{"Alg5Alpha(1)", core.Alg5Alpha(1), 9},
		{"Alg5Alpha(4)", core.Alg5Alpha(4), 25},
		{"Alg5Alpha(10)", core.Alg5Alpha(10), 64},
		{"TradeoffPhases(8,2)", core.TradeoffPhases(8, 2), 15},
		{"TradeoffPhases(8,3)", core.TradeoffPhases(8, 3), 14},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestMsgLowerBoundTakesMax(t *testing.T) {
	f := func(nRaw, tRaw uint8) bool {
		n := int(nRaw)%500 + 2
		tt := int(tRaw) % n
		got := core.MsgLowerBound(n, tt)
		a := (n - 1) / 2
		half := 1 + float64(tt)/2
		b := int(half * half)
		return got >= a && got >= b && (got == a || got == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlg5AlphaProperties(t *testing.T) {
	// α is a perfect square, strictly greater than 6t, and minimal.
	f := func(tRaw uint8) bool {
		tt := int(tRaw)%200 + 1
		a := core.Alg5Alpha(tt)
		if a <= 6*tt {
			return false
		}
		r := 0
		for r*r < a {
			r++
		}
		if r*r != a {
			return false
		}
		// Minimality: (r-1)² must not exceed 6t.
		return (r-1)*(r-1) <= 6*tt
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAlg5PhasesMonotone(t *testing.T) {
	// More tolerance or bigger trees never shrink the schedule bound.
	for tt := 1; tt < 8; tt++ {
		for s := 1; s < 16; s++ {
			if core.Alg5Phases(tt+1, s) < core.Alg5Phases(tt, s) {
				t.Fatalf("phases decreased in t at (%d,%d)", tt, s)
			}
			if core.Alg5Phases(tt, s+1) < core.Alg5Phases(tt, s) {
				t.Fatalf("phases decreased in s at (%d,%d)", tt, s)
			}
		}
	}
}

func TestDegenerateParams(t *testing.T) {
	if core.Alg3MsgUpperBound(10, 1, 0) <= 0 {
		t.Fatal("s=0 not normalized")
	}
	if core.Alg5MsgUpperBound(10, 1, 0) <= 0 {
		t.Fatal("alg5 s=0 not normalized")
	}
	if core.Alg5Phases(1, 0) <= 0 {
		t.Fatal("alg5 phases s=0 not normalized")
	}
}
