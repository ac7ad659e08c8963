// The server lifecycle, written once (DESIGN.md §5.6 gives the order of
// bring-up and drain and the reason for each step): baserve, `baload
// -selfhost` and the drills' child (Fork) run Start, Banner and Drain.

package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"byzex/internal/core"
	"byzex/internal/journal"
	"byzex/internal/obs"
	"byzex/internal/service"
	"byzex/internal/trace"
)

// Started is what a server's banner says: what Start fills in, Banner prints
// and AwaitBanner reads back.
type Started struct {
	// The bound addresses; MetricsAddr is "" without -metrics-addr.
	Addr, MetricsAddr string
	// Recovery, all zero without a journal: the sync policy, the first id no
	// journaled admission uses, the pending admissions re-executed before the
	// listener opened, the wall time of journal scan plus replay.
	Fsync     string
	Watermark uint64
	Replayed  int
	Recovery  time.Duration
}

// Server is a serving process between Start and Drain.
type Server struct {
	Started
	Service *service.Service
	// The -journal-dir writer and the -trace sink; nil when the flag is unset.
	Journal *journal.Writer
	Spool   *trace.Spool

	sf        *ServeFlags
	cfg       service.Config
	cancel    context.CancelFunc
	traceFile *os.File
	served    chan struct{} // closed once service.Serve has returned serveErr
	serveErr  error
	scraped   chan error // obs.Serve's result; nil without -metrics-addr
}

// Start brings a server up over the resolved template and returns once it
// listens on addr. Replay precedes listen: it re-assigns the original ids
// through the service's single-producer dispatch path, so no live submission
// may interleave with it. Cancelling ctx stops admission as a signal does; the
// caller still owes the server one Drain. A failed Start releases what it opened.
func (sf *ServeFlags) Start(ctx context.Context, tmpl core.Config, addr string) (_ *Server, err error) {
	cfg, err := sf.serviceConfig(tmpl)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	s := &Server{sf: sf, cancel: cancel}
	defer func() {
		if err != nil {
			_, _ = s.Drain() // err is the cause; a failed release adds nothing to it
		}
	}()

	if *sf.TracePath != "" {
		if s.traceFile, err = os.Create(*sf.TracePath); err != nil {
			return nil, err
		}
		s.Spool = trace.NewSpool(s.traceFile, *sf.TraceRing)
		cfg.Trace = s.Spool
	}
	began := time.Now()
	var rec *journal.Recovery
	if *sf.JournalDir != "" {
		fsync, err := journal.ParseFsync(*sf.Fsync)
		if err != nil {
			return nil, err
		}
		s.Journal, rec, err = journal.Open(*sf.JournalDir, journal.Options{
			Template:           tmpl,
			Fsync:              fsync,
			CheckpointEvery:    *sf.CheckpointEvery,
			CheckpointInterval: *sf.CheckpointInterval,
		})
		if err != nil {
			return nil, err
		}
		cfg.Journal = s.Journal
		cfg.FirstInstance = rec.FirstInstance()
		cfg.BaseStats = rec.BaseStats()
	}
	s.cfg = cfg
	if s.Service, err = service.New(ctx, cfg); err != nil {
		return nil, err
	}
	if rec != nil {
		if s.Replayed, err = rec.Replay(s.Service, tmpl); err != nil {
			return nil, err
		}
		s.Journal.SetReplayed(uint64(s.Replayed))
		s.Fsync, s.Watermark, s.Recovery = *sf.Fsync, rec.Watermark, time.Since(began)
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Addr = ln.Addr().String()
	s.served = make(chan struct{})
	go func() {
		s.serveErr = service.Serve(ctx, ln, s.Service)
		close(s.served)
	}()
	// A listener of its own: a slow scraper cannot hold a serving connection.
	if *sf.MetricsAddr != "" {
		exp := obs.NewExporter()
		exp.Register(obs.NewServiceCollector(s.Service))
		if s.Spool != nil {
			exp.Register(obs.NewSpoolCollector(s.Spool))
		}
		if s.Journal != nil {
			exp.Register(obs.NewJournalCollector(s.Journal))
		}
		mln, err := net.Listen("tcp", *sf.MetricsAddr)
		if err != nil {
			return nil, err
		}
		s.MetricsAddr = mln.Addr().String()
		s.scraped = make(chan error, 1)
		go func() { s.scraped <- obs.Serve(ctx, mln, exp) }()
	}
	return s, nil
}

// Banner prints what the started server promises: recovery is complete (the
// journal line), the metrics endpoint answers, submissions are accepted. The
// listening line is last, so a reader that has seen it has seen all three.
func (s *Server) Banner(w io.Writer, name string) {
	if s.Journal != nil {
		fmt.Fprintf(w, "journal: %s fsync=%s watermark=%d replayed=%d recovery=%s\n",
			*s.sf.JournalDir, s.Fsync, s.Watermark, s.Replayed, s.Recovery)
	}
	if s.MetricsAddr != "" {
		fmt.Fprintf(w, "metrics: http://%s/metrics\n", s.MetricsAddr)
	}
	fmt.Fprintf(w, "%s: %s n=%d t=%d batch=%d shards=%d listening on %s\n",
		name, s.sf.Protocol, s.cfg.Template.N, s.cfg.Template.T, s.cfg.BatchSize, s.Service.Stats().Shards, s.Addr)
}

// AwaitBanner polls the file a forked server writes its output to until the
// banner is complete — the listening line, newline included — and returns it.
// Nothing but Banner and this function spells the banner.
func AwaitBanner(path string, timeout time.Duration) (b Started, err error) {
	// Compiled here, not at package level: the ledger's binary links this
	// package and must not pay for a pattern only the drills use.
	lines := regexp.MustCompile(
		`(?m)(?:^journal: \S+ fsync=(\S+) watermark=(\d+) replayed=(\d+) recovery=(\S+)\n)?` +
			`(?:^metrics: http://(\S+)/metrics\n)?` +
			`^\S+: \S+ n=\d+ t=\d+ \S+ shards=\d+ listening on (\S+)\n`)
	for deadline := time.Now().Add(timeout); ; time.Sleep(5 * time.Millisecond) {
		out, _ := os.ReadFile(path)
		if m := lines.FindStringSubmatch(string(out)); m != nil {
			b.Fsync, b.MetricsAddr, b.Addr = m[1], m[5], m[6]
			b.Watermark, _ = strconv.ParseUint(m[2], 10, 64) // all three "" without a journal line
			b.Replayed, _ = strconv.Atoi(m[3])
			b.Recovery, _ = time.ParseDuration(m[4])
			return b, nil
		}
		if time.Now().After(deadline) {
			return b, fmt.Errorf("no banner in %s after %v", path, timeout)
		}
	}
}

// Drain shuts the server down: stop both listeners and wait out the open
// connections; drain the service, so every admitted value decides and the
// journal takes its final checkpoint (a failed one is swallowed there to
// finish delivery — the count read here and the writer's Close are where it
// shows); close the spool last, which appends the admission ring. It returns
// every error, joined, and the failed checkpoint writes. Call it exactly once.
func (s *Server) Drain() (checkpointFailures uint64, err error) {
	s.cancel()
	var errs []error
	if s.served != nil {
		<-s.served
		errs = append(errs, s.serveErr)
	}
	if s.Service != nil {
		s.Service.Close()
	}
	if s.scraped != nil {
		errs = append(errs, <-s.scraped)
	}
	if s.Journal != nil {
		checkpointFailures = s.Journal.Stats().CheckpointFailures
		errs = append(errs, s.Journal.Close())
	}
	if s.Spool != nil {
		errs = append(errs, s.Spool.Close(), s.traceFile.Close())
	}
	return checkpointFailures, errors.Join(errs...)
}

// CheckpointWarning prints Drain's count, when it is not zero.
func CheckpointWarning(w io.Writer, failures uint64) {
	if failures > 0 {
		fmt.Fprintf(w, "journal: warning: %d checkpoint write(s) failed; the next restart replays from the last good checkpoint\n", failures)
	}
}

const forkedEnv = "BYZEX_FORKED_SERVER" // marks Fork's child: the one drill env var

// Fork starts this binary again as a serving process, one the drills can
// SIGKILL, with args as its serving flags and its output in out; it returns
// once the banner is out. main (or TestMain) must call ServeForked first.
func Fork(args []string, out *os.File) (*exec.Cmd, Started, error) {
	child := exec.Command(os.Args[0], args...)
	child.Env = append(os.Environ(), forkedEnv+"=1")
	child.Stdout, child.Stderr = out, out
	if err := child.Start(); err != nil {
		return nil, Started{}, err
	}
	b, err := AwaitBanner(out.Name(), 30*time.Second)
	if err != nil {
		_ = child.Process.Kill()
		_ = child.Wait()
		return nil, b, err
	}
	return child, b, nil
}

// ServeForked serves, then exits, when this process is one Fork started.
func ServeForked(name string) {
	if os.Getenv(forkedEnv) == "1" {
		os.Exit(ServeMain(name, os.Args[1:], os.Stdout, os.Stderr))
	}
}

// ServeMain is a serving process — baserve, and the child the drills fork:
// parse, start, banner, wait for SIGINT/SIGTERM, drain, summary.
func ServeMain(name string, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	sf := RegisterServeFlags(fs)
	addr := fs.String("addr", "127.0.0.1:9440", "listen address")
	verbose := fs.Bool("v", false, "print the trace summary table on drain")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}
	tmpl, err := sf.ResolveWarn(stderr)
	if err != nil {
		return fail(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv, err := sf.Start(ctx, tmpl, *addr)
	if err != nil {
		return fail(err)
	}
	srv.Banner(stdout, name)

	began := time.Now()
	<-srv.served // the signal, or an accept failure
	failures, err := srv.Drain()
	CheckpointWarning(stdout, failures)
	if err != nil {
		return fail(err)
	}
	st := srv.Service.Stats()
	fmt.Fprintf(stdout, "drained after %v: %s\n", time.Since(began).Round(time.Millisecond), st.String())
	if srv.Spool != nil {
		spst := srv.Spool.Stats() // post-close: Flushed includes the ring tail
		fmt.Fprintf(stdout, "trace: %s (%d events, %d spooled, %d admission-scoped dropped)\n",
			*sf.TracePath, spst.Events, spst.Flushed, spst.Dropped)
		if *verbose {
			fmt.Fprint(stdout, spst.Summary.Table())
		}
	} else if *verbose {
		fmt.Fprintf(stdout, "amortized: %.2f msgs/value %.2f sigs/value\n",
			st.AmortizedMessagesPerValue(), st.AmortizedSignaturesPerValue())
	}
	return 0
}
