package service_test

import (
	"context"
	"testing"
	"time"

	"byzex/internal/ident"
	"byzex/internal/service"
)

// arrivalValue picks an open-loop arrival's value from its index alone.
func arrivalValue(_, i int) ident.Value { return ident.Value(i%2 + i%3) }

// TestPoissonScheduleDeterministic is the replayability acceptance: a fixed
// seed reproduces the arrival schedule exactly, and the schedule has the
// shape a Poisson process must have (strictly within the window, ascending,
// mean inter-arrival near 1/rate).
func TestPoissonScheduleDeterministic(t *testing.T) {
	const (
		seed     = 42
		rate     = 5000.0
		duration = 2 * time.Second
	)
	a := service.PoissonSchedule(seed, rate, duration)
	b := service.PoissonSchedule(seed, rate, duration)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverges at arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := service.PoissonSchedule(seed+1, rate, duration)
	diff := len(c) != len(a)
	for i := 0; !diff && i < len(a); i++ {
		diff = a[i] != c[i]
	}
	if !diff {
		t.Fatal("different seeds produced identical schedules")
	}

	prev := time.Duration(-1)
	for i, at := range a {
		if at <= prev {
			t.Fatalf("arrival %d not ascending: %v after %v", i, at, prev)
		}
		if at < 0 || at >= duration {
			t.Fatalf("arrival %d outside window: %v", i, at)
		}
		prev = at
	}
	// Expected arrivals = rate * seconds; 10k samples put the observed count
	// well within 10% at this seed count.
	want := rate * duration.Seconds()
	if got := float64(len(a)); got < 0.9*want || got > 1.1*want {
		t.Fatalf("arrival count %v, want within 10%% of %v", got, want)
	}

	if got := service.PoissonSchedule(seed, 0, duration); got != nil {
		t.Fatalf("zero rate: got %d arrivals, want none", len(got))
	}
	if got := service.PoissonSchedule(seed, rate, 0); got != nil {
		t.Fatalf("zero duration: got %d arrivals, want none", len(got))
	}
}

// TestOpenLoadAgainstService drives an open-loop run end to end over the
// wire: every scheduled arrival is accounted for (submitted or shed, never
// lost), latencies are measured per success, and the amortized-cost
// aggregation carries over from the closed-loop path.
func TestOpenLoadAgainstService(t *testing.T) {
	svc, addr := startServer(t, service.Config{
		Template:   multiTemplate(23),
		Shards:     8,
		QueueDepth: 64,
		BatchSize:  4,
	})

	stats, err := service.RunLoad(context.Background(), service.LoadConfig{
		Addr:     addr,
		Conns:    8,
		Rate:     400,
		Duration: 500 * time.Millisecond,
		Seed:     7,
		ValueFor: arrivalValue,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Offered != len(service.PoissonSchedule(7, 400, 500*time.Millisecond)) {
		t.Fatalf("offered %d does not match the seeded schedule", stats.Offered)
	}
	if stats.Offered == 0 {
		t.Fatal("no arrivals offered")
	}
	if stats.Submitted+stats.Rejected != stats.Offered {
		t.Fatalf("arrivals lost: submitted %d + rejected %d != offered %d",
			stats.Submitted, stats.Rejected, stats.Offered)
	}
	if stats.Submitted == 0 {
		t.Fatal("nothing submitted")
	}
	if len(stats.Latencies) != stats.Submitted {
		t.Fatalf("%d latencies for %d submissions", len(stats.Latencies), stats.Submitted)
	}
	for i := 1; i < len(stats.Latencies); i++ {
		if stats.Latencies[i] < stats.Latencies[i-1] {
			t.Fatal("latencies not sorted")
		}
	}
	if p50, p99 := stats.Percentile(50), stats.Percentile(99); p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles inconsistent: p50=%v p99=%v", p50, p99)
	}
	if stats.ValuesServed == 0 || stats.AmortizedMsgsPerValue() <= 0 {
		t.Fatalf("amortized accounting missing: values=%d msgs/value=%v",
			stats.ValuesServed, stats.AmortizedMsgsPerValue())
	}
	// The server's own books must agree with the client's.
	st := svc.Stats()
	if st.Submitted != uint64(stats.Submitted) {
		t.Fatalf("server admitted %d, client submitted %d", st.Submitted, stats.Submitted)
	}
}

// TestOpenLoadShedsUnderOverload pins the open-loop property the SLO gate
// relies on: against a tiny queue, offered load does not slow down — excess
// arrivals are rejected and counted, not retried into a closed loop.
func TestOpenLoadShedsUnderOverload(t *testing.T) {
	_, addr := startServer(t, service.Config{
		Template:   multiTemplate(29),
		Shards:     1,
		QueueDepth: 1,
		BatchSize:  1,
	})

	// A fast machine can occasionally drain the single slot quicker than a
	// fixed offered rate fills it, so escalate until something sheds: the
	// property under test is that overload rejects rather than queues, not
	// that any particular rate constitutes overload.
	for attempt, rate := 0, float64(2000); ; attempt, rate = attempt+1, rate*4 {
		stats, err := service.RunLoad(context.Background(), service.LoadConfig{
			Addr:     addr,
			Conns:    4,
			Rate:     rate,
			Duration: 300 * time.Millisecond,
			Seed:     11,
			ValueFor: arrivalValue,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Submitted+stats.Rejected != stats.Offered {
			t.Fatalf("arrivals lost under overload: %d + %d != %d",
				stats.Submitted, stats.Rejected, stats.Offered)
		}
		if stats.Rejected > 0 {
			break
		}
		if attempt == 2 {
			t.Fatalf("overloaded single-slot service rejected nothing at %v/s (offered %d)",
				rate, stats.Offered)
		}
	}
}
