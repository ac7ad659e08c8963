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

// LoadConfig parameterizes a closed-loop load run.
type LoadConfig struct {
	// Addr is the serving address.
	Addr string
	// Conns is the number of concurrent connections (closed loop: each
	// connection has exactly one request outstanding).
	Conns int
	// Requests is the number of successful submissions per connection.
	Requests int
	// ValueFor picks the value connection c submits as its i-th request
	// (default: a deterministic mix of c and i).
	ValueFor func(c, i int) ident.Value
	// RetryWait is the backoff after an ErrQueueFull rejection before the
	// same value is retried (default 200µs).
	RetryWait time.Duration
}

// LoadStats aggregates a load run (closed loop: RunLoad; open loop:
// RunOpenLoad).
type LoadStats struct {
	// Offered counts scheduled arrivals (open-loop runs only; 0 for
	// closed-loop runs, where offered load is defined by completions).
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

// RunLoad drives a closed-loop load against a serving address: Conns
// connections each submit Requests values sequentially, retrying
// backpressure rejections. The returned stats carry latency percentiles,
// throughput and the amortized per-value costs of every distinct instance
// observed.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadStats, error) {
	if cfg.Conns < 1 {
		cfg.Conns = 1
	}
	if cfg.Requests < 1 {
		cfg.Requests = 1
	}
	if cfg.ValueFor == nil {
		cfg.ValueFor = func(c, i int) ident.Value { return ident.Value(c*1000 + i) }
	}
	if cfg.RetryWait <= 0 {
		cfg.RetryWait = 200 * time.Microsecond
	}

	stats := &LoadStats{Instances: make(map[uint64]Reply)}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, cfg.Conns)
	start := time.Now()
	for c := 0; c < cfg.Conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = loadConn(ctx, cfg, c, stats, &mu)
		}(c)
	}
	wg.Wait()
	stats.Elapsed = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	sort.Slice(stats.Latencies, func(i, j int) bool { return stats.Latencies[i] < stats.Latencies[j] })
	for _, r := range stats.Instances {
		if r.Committed {
			stats.ValuesServed += r.Batch
			stats.MsgsTotal += r.Msgs
			stats.SigsTotal += r.Sigs
		}
	}
	return stats, nil
}

func loadConn(ctx context.Context, cfg LoadConfig, c int, stats *LoadStats, mu *sync.Mutex) error {
	cl, err := DialClient(cfg.Addr)
	if err != nil {
		return err
	}
	defer func() { _ = cl.Close() }()
	// Per-connection rng decorrelates the retry waits: with a fixed sleep,
	// every connection rejected by the same full queue retried in lock-step
	// and slammed the queue again as one synchronized wave.
	rng := rand.New(rand.NewSource(int64(c)*0x9e3779b9 + 1))
	for i := 0; i < cfg.Requests; i++ {
		v := cfg.ValueFor(c, i)
		for {
			if err := ctx.Err(); err != nil {
				return err
			}
			begin := time.Now()
			reply, err := cl.Submit(v)
			if errors.Is(err, ErrQueueFull) {
				mu.Lock()
				stats.Rejected++
				mu.Unlock()
				if err := sleepJittered(ctx, cfg.RetryWait, rng); err != nil {
					return err
				}
				continue
			}
			if err != nil {
				return fmt.Errorf("conn %d request %d: %w", c, i, err)
			}
			lat := time.Since(begin)
			mu.Lock()
			stats.Submitted++
			stats.Latencies = append(stats.Latencies, lat)
			stats.Instances[reply.InstanceID] = reply
			mu.Unlock()
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
