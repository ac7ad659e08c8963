package cli

import (
	"errors"
	"flag"
	"fmt"
	"time"

	"byzex/internal/core"
	"byzex/internal/service"
	"byzex/internal/transport"
	"byzex/internal/wire"
)

// ServeFlags is the serving flag surface of baserve and baload (selfhost mode
// and churn child): the instance template, the substrate, the pipeline knobs,
// the ops plane, durability and the wire version. RegisterServeFlags declares
// each flag exactly once and Start (lifecycle.go) is the one place they are
// acted on, so the surfaces cannot diverge.
type ServeFlags struct {
	// The template flags, parsed in place: sf.Protocol, sf.Seed, ... and
	// sf.Resolve() read them.
	*Template

	// Substrate flags.
	Transport *string
	LinkDelay *time.Duration

	// Pipeline flags.
	Shards *int
	Queue  *int
	Batch  *int
	Linger *time.Duration

	// Ops-plane flags.
	MetricsAddr *string
	TracePath   *string
	TraceRing   *int

	// Durability flags.
	JournalDir         *string
	Fsync              *string
	CheckpointEvery    *int
	CheckpointInterval *time.Duration

	// Wire flags.
	WireVersion *int
}

// RegisterServeFlags declares the shared serving surface on fs and returns
// the bound values. Command-specific flags (-addr, -c, -rate, ...) stay with
// their command.
func RegisterServeFlags(fs *flag.FlagSet) *ServeFlags {
	sf := &ServeFlags{Template: RegisterTemplateFlags(fs, "alg1")}

	sf.Transport = fs.String("transport", "memory", "substrate per instance: memory|tcp (one warm localhost mesh per shard, reused across instances)")
	sf.LinkDelay = fs.Duration("link-delay", 0, "with -transport tcp: modeled one-way link latency per phase")

	sf.Shards = fs.Int("shards", 0, "shard workers executing instances concurrently (default GOMAXPROCS)")
	sf.Queue = fs.Int("queue", 64, "admission queue depth")
	sf.Batch = fs.Int("batch", 1, "max values coalesced into one instance (fixed batching)")
	sf.Linger = fs.Duration("linger", 0, "how long to wait for a batch to fill")

	sf.MetricsAddr = fs.String("metrics-addr", "", "serve Prometheus text metrics on this address (e.g. 127.0.0.1:9441); empty = off")
	sf.TracePath = fs.String("trace", "", "spool the service execution trace (JSONL) to this file; instance events flush at delivery")
	sf.TraceRing = fs.Int("trace-ring", 4096, "with -trace: admission-scoped events retained (older ones are dropped and counted)")

	sf.JournalDir = fs.String("journal-dir", "", "write-ahead journal directory; admissions are journaled before execution and replayed on restart; empty = no durability")
	sf.Fsync = fs.String("fsync", "always", `journal sync policy: "always" (sync every admission) or a group-commit interval like "2ms"`)
	sf.CheckpointEvery = fs.Int("checkpoint-every", 5000, "with -journal-dir: write a mid-run checkpoint every N journaled admissions, pruning delivered segments (0 = only at drain)")
	sf.CheckpointInterval = fs.Duration("checkpoint-interval", 30*time.Second, "with -journal-dir: also checkpoint after this much time since the last one (0 = no timer)")

	sf.WireVersion = fs.Int("wire-version", 0, "with -transport tcp: frame version to emit (0 = current; receivers accept the whole compatibility window)")
	return sf
}

// ServeArgs returns the serving flags the user set on fs, as argv for a
// process that parses the same surface (the churn drill's child).
func ServeArgs(fs *flag.FlagSet) []string {
	surface := flag.NewFlagSet("", flag.ContinueOnError)
	RegisterServeFlags(surface)
	var args []string
	fs.Visit(func(f *flag.Flag) {
		if surface.Lookup(f.Name) != nil {
			args = append(args, "-"+f.Name+"="+f.Value.String())
		}
	})
	return args
}

// serviceConfig turns the pipeline and substrate flags into a service config
// over the resolved template; Start attaches the trace sink and the journal.
func (sf *ServeFlags) serviceConfig(tmpl core.Config) (service.Config, error) {
	cfg := service.Config{
		Template:   tmpl,
		Shards:     *sf.Shards,
		QueueDepth: *sf.Queue,
		BatchSize:  *sf.Batch,
		Linger:     *sf.Linger,
	}
	switch *sf.Transport {
	case "memory":
	case "tcp":
		netCfg := transport.Net{LinkDelay: *sf.LinkDelay, WireVersion: byte(*sf.WireVersion)}
		if netCfg.WireVersion != 0 {
			if err := wire.CheckFrameVersion(netCfg.WireVersion); err != nil {
				return cfg, err
			}
		}
		cfg.Substrate = service.NewWarmTCP(tmpl.N, netCfg)
	default:
		return cfg, fmt.Errorf("unknown transport %q", *sf.Transport)
	}
	if *sf.WireVersion != 0 && *sf.Transport != "tcp" {
		return cfg, errors.New("-wire-version requires -transport tcp")
	}
	return cfg, nil
}
