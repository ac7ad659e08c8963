package service

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"byzex/internal/ident"
)

// Reply is the parsed OK response to one submission: enough to re-execute
// the instance serially (Seed, Packed) and to account amortized costs
// (Batch, Msgs, Sigs). Replies of the same batch share an InstanceID.
type Reply struct {
	InstanceID uint64
	Seed       int64
	Batch      int
	Packed     ident.Value
	Decided    ident.Value
	Committed  bool
	Msgs       int
	Sigs       int
}

// Client is one connection to a Service's line protocol (see Serve).
// Requests on a client are sequential; open several clients for
// concurrency. Not safe for concurrent use.
type Client struct {
	conn net.Conn
	br   *bufio.Reader
	buf  []byte // the request line being written
}

// DialClient connects to a serving address.
func DialClient(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() error { return c.conn.Close() }

// Submit sends one value and waits for its reply. Backpressure rejections
// come back as the service's own typed errors (ErrQueueFull, ErrDraining),
// so callers retry or shed exactly as an in-process submitter would.
func (c *Client) Submit(v ident.Value) (Reply, error) {
	c.buf = append(strconv.AppendInt(c.buf[:0], int64(v), 10), '\n')
	if _, err := c.conn.Write(c.buf); err != nil {
		return Reply{}, err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return Reply{}, err
	}
	return parseReply(line)
}

// Stats fetches the server's stats snapshot as a typed struct (the reply is
// one line of JSON; see the wire protocol in server.go), so remote callers —
// baload's SLO checks, the tests — compare counters instead of string-matching
// the human-readable Stats.String line.
func (c *Client) Stats() (Stats, error) {
	if _, err := fmt.Fprintln(c.conn, "stats"); err != nil {
		return Stats{}, err
	}
	line, err := c.br.ReadString('\n')
	if err != nil {
		return Stats{}, err
	}
	payload, ok := strings.CutPrefix(strings.TrimSpace(line), "STATS ")
	if !ok {
		return Stats{}, fmt.Errorf("service: malformed stats reply %q", strings.TrimSpace(line))
	}
	var st Stats
	if err := json.Unmarshal([]byte(payload), &st); err != nil {
		return Stats{}, fmt.Errorf("service: malformed stats reply %q: %w", payload, err)
	}
	return st, nil
}

// parseReply parses one reply line; surrounding white space (the newline, a
// carriage return) is ignored.
func parseReply(line string) (Reply, error) {
	line = strings.TrimSpace(line)
	switch {
	case line == "ERR full":
		return Reply{}, ErrQueueFull
	case line == "ERR draining":
		return Reply{}, ErrDraining
	case strings.HasPrefix(line, "ERR "):
		return Reply{}, fmt.Errorf("service: server error: %s", strings.TrimPrefix(line, "ERR "))
	}
	rest, ok := strings.CutPrefix(line, "OK ")
	field := func() (f string) {
		f, rest, _ = strings.Cut(rest, " ")
		return f
	}
	num := func(bits int) int64 {
		v, err := strconv.ParseInt(field(), 10, bits)
		ok = ok && err == nil
		return v
	}
	id, err := strconv.ParseUint(field(), 10, 64)
	ok = ok && err == nil
	r := Reply{
		InstanceID: id, Seed: num(64), Batch: int(num(32)), Packed: ident.Value(num(64)),
		Decided: ident.Value(num(64)), Committed: num(8) == 1, Msgs: int(num(64)), Sigs: int(num(64)),
	}
	if !ok || rest != "" {
		return Reply{}, fmt.Errorf("service: malformed reply %q", line)
	}
	return r, nil
}

// LoadConfig parameterizes RunLoad; Rate picks the shape (see RunLoad).
type LoadConfig struct {
	// Addr is the serving address.
	Addr string
	// Conns is the number of connections, each with at most one request
	// outstanding. An open loop hands each arrival to the first free
	// connection, so Conns bounds in-flight requests without changing the
	// schedule (arrivals beyond it queue, and their queue wait counts
	// against latency).
	Conns int
	// Requests is the closed loop's number of successful submissions per
	// connection; 0 means no cap: the loop runs until ctx is cancelled.
	Requests int
	// ValueFor picks the value connection c submits as its request i — in an
	// open loop, as arrival i (default: a deterministic mix of c and i).
	ValueFor func(c, i int) ident.Value
	// RetryWait is the closed loop's mean backoff after an ErrQueueFull
	// rejection before the same value is retried (default 200µs).
	RetryWait time.Duration
	// Rate > 0 makes the loop open: PoissonSchedule(Seed, Rate, Duration)
	// arrivals, in submissions per second over the arrival window.
	Rate     float64
	Duration time.Duration
	Seed     int64
	// OnAck, when set, is told the running count of successful submissions
	// as each lands. It runs under the run's lock, so the calls are
	// serialized and the count strictly grows; it must not block.
	OnAck func(acked int)
}

// LoadStats aggregates a load run.
type LoadStats struct {
	// Offered counts scheduled arrivals (open loop only; 0 for a closed
	// loop, where offered load is defined by completions).
	Offered int
	// Submitted counts successful submissions; Rejected counts
	// ErrQueueFull rejections — retried in a closed loop, shed in an
	// open loop.
	Submitted int
	Rejected  int
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
	// Latencies holds one client-observed round-trip per successful
	// submission, ascending.
	Latencies []time.Duration
	// Instances indexes the distinct instances observed, by id.
	Instances map[uint64]Reply
	// ValuesServed sums batch sizes over distinct committed instances;
	// MsgsTotal / SigsTotal sum their correct-sender costs. The quotient
	// is the client-observed amortized cost per value.
	ValuesServed int
	MsgsTotal    int
	SigsTotal    int
}

// Throughput returns successful submissions per second.
func (ls *LoadStats) Throughput() float64 {
	if ls.Elapsed <= 0 {
		return 0
	}
	return float64(ls.Submitted) / ls.Elapsed.Seconds()
}

// Percentile returns the p-th latency percentile (0 < p <= 100) using the
// nearest-rank (ceiling) definition: the smallest recorded latency that at
// least p percent of samples do not exceed. With two samples, p=90 is the
// max, not the min — small-sample tails stay conservative.
func (ls *LoadStats) Percentile(p float64) time.Duration {
	n := len(ls.Latencies)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return ls.Latencies[idx]
}

// AmortizedMsgsPerValue returns the client-observed correct-sender messages
// per served value.
func (ls *LoadStats) AmortizedMsgsPerValue() float64 {
	if ls.ValuesServed == 0 {
		return 0
	}
	return float64(ls.MsgsTotal) / float64(ls.ValuesServed)
}

// RunLoad drives load against a serving address over Conns connections in
// one of three shapes:
//   - closed (Rate 0): each connection submits Requests values in turn,
//     retrying an ErrQueueFull rejection after a jittered RetryWait;
//   - open (Rate > 0): the arrivals of PoissonSchedule(Seed, Rate,
//     Duration) fan out over the connections, rejections are shed (counted,
//     never retried — an open loop does not slow down), and each latency is
//     measured from the arrival's scheduled time;
//   - drill (Rate 0, Requests 0): the closed loop with no cap, until ctx is
//     cancelled. That cancel ends the run without an error, so connections
//     severed after it — a drill killing its server — are not failures.
//
// The first connection error stops every connection and is the run's error.
// The returned stats carry latency percentiles, throughput and the
// amortized per-value costs of every distinct instance observed.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadStats, error) {
	r := &loadRun{LoadConfig: cfg, stats: &LoadStats{Instances: make(map[uint64]Reply)}}
	r.Conns = max(r.Conns, 1)
	if r.ValueFor == nil {
		r.ValueFor = func(c, i int) ident.Value { return ident.Value(c*1000 + i) }
	}
	if r.RetryWait <= 0 {
		r.RetryWait = 200 * time.Microsecond
	}
	if r.Rate > 0 {
		if r.Duration <= 0 {
			return nil, errors.New("service: open-loop duration must be positive")
		}
		r.sched = PoissonSchedule(r.Seed, r.Rate, r.Duration)
		r.stats.Offered = len(r.sched)
		r.arrivals = make(chan int, len(r.sched))
	}
	runCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)
	var wg sync.WaitGroup
	r.start = time.Now()
	if r.arrivals != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.dispatch(runCtx)
		}()
	}
	for c := range r.Conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.conn(runCtx, c); err != nil {
				stop(err)
			}
		}()
	}
	wg.Wait()
	stats := r.stats
	stats.Elapsed = time.Since(r.start)
	err := context.Cause(runCtx)
	if r.Rate <= 0 && r.Requests <= 0 && err == context.Cause(ctx) {
		err = nil // stopped by ctx, not by a connection: the drill's end
	}
	if err != nil {
		return stats, err
	}
	sort.Slice(stats.Latencies, func(i, j int) bool { return stats.Latencies[i] < stats.Latencies[j] })
	for _, rep := range stats.Instances {
		if rep.Committed {
			stats.ValuesServed += rep.Batch
			stats.MsgsTotal += rep.Msgs
			stats.SigsTotal += rep.Sigs
		}
	}
	return stats, nil
}

// loadRun is one RunLoad in progress.
type loadRun struct {
	LoadConfig
	start    time.Time
	sched    []time.Duration // open loop: arrival offsets from start
	arrivals chan int        // open loop: indexes into sched, released when due
	mu       sync.Mutex      // guards stats
	stats    *LoadStats
}

// dispatch releases each arrival at its scheduled time. It never blocks on
// the connections: the channel holds the whole schedule, so a backed-up
// connection pool delays service, not arrivals — the definition of an open
// loop.
func (r *loadRun) dispatch(ctx context.Context) {
	defer close(r.arrivals)
	timer := time.NewTimer(0)
	defer timer.Stop()
	<-timer.C
	for i, off := range r.sched {
		if wait := time.Until(r.start.Add(off)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				return
			case <-timer.C:
			}
		}
		r.arrivals <- i
	}
}

// conn is one connection's loop: the closed loop's requests 0, 1, … in
// turn, or the open loop's arrivals as they are released.
func (r *loadRun) conn(ctx context.Context, c int) error {
	cl, err := DialClient(r.Addr)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	open := r.arrivals != nil
	// Per-connection rng decorrelates the retry waits: with a fixed sleep,
	// every connection rejected by the same full queue retried in lock-step
	// and slammed the queue again as one synchronized wave.
	rng := rand.New(rand.NewSource(int64(c)*0x9e3779b9 + 1))
	for n := 0; open || r.Requests <= 0 || n < r.Requests; n++ {
		i, arrival := n, time.Time{}
		if open {
			var ok bool
			if i, ok = <-r.arrivals; !ok {
				return nil
			}
			arrival = r.start.Add(r.sched[i])
		}
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			if !open {
				arrival = time.Now()
			}
			reply, err := cl.Submit(r.ValueFor(c, i))
			// Open loop: latency from the scheduled arrival, not the Submit
			// call — time spent queued behind the connection pool is real
			// user wait.
			lat := time.Since(arrival)
			if errors.Is(err, ErrQueueFull) || open && errors.Is(err, ErrDraining) {
				r.mu.Lock()
				r.stats.Rejected++
				r.mu.Unlock()
				if open {
					break
				}
				if err := sleepJittered(ctx, r.RetryWait, rng); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("conn %d request %d: %w", c, i, err)
			}
			r.mu.Lock()
			r.stats.Submitted++
			r.stats.Latencies = append(r.stats.Latencies, lat)
			r.stats.Instances[reply.InstanceID] = reply
			if r.OnAck != nil {
				r.OnAck(r.stats.Submitted)
			}
			r.mu.Unlock()
			break
		}
	}
	return nil
}

// sleepJittered waits base/2 + U[0, base) — mean base, decorrelated across
// connections — and returns early with ctx's error when the load run is
// cancelled, so a long RetryWait cannot pin a shutdown.
func sleepJittered(ctx context.Context, base time.Duration, rng *rand.Rand) error {
	wait := base/2 + time.Duration(rng.Int63n(int64(base)))
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
