// The run-scoped outputs of the one-shot tools (basim, baattack, baexp):
// the -cpuprofile/-memprofile pair and the -trace JSONL file are declared
// once and their lifecycle — start CPU profiling and open the trace before
// the work, flush/close the trace and snapshot the heap after — is
// implemented once, in RunFlags.

package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"byzex/internal/trace"
)

// RunFlags holds the parsed -cpuprofile, -memprofile and -trace paths; each
// is optional (empty string disables).
type RunFlags struct {
	cpuPath, memPath string
	// TracePath is the -trace value ("" = tracing off).
	TracePath string
}

// RegisterRunFlags declares the profile/trace trio on fs.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	rf := &RunFlags{}
	fs.StringVar(&rf.cpuPath, "cpuprofile", "", "write a pprof CPU profile to this file")
	fs.StringVar(&rf.memPath, "memprofile", "", "write a pprof heap profile to this file")
	fs.StringVar(&rf.TracePath, "trace", "", "write the structured execution trace of every run (JSONL) to this file")
	return rf
}

// Start begins CPU profiling and opens the trace file. sink is the JSONL
// trace sink, a nil interface when -trace is unset. stop must be called
// once after the work: it flushes and closes the trace, finalizes the CPU
// profile and writes the heap profile, returning every error.
func (rf *RunFlags) Start() (sink trace.Sink, stop func() error, err error) {
	var cpu, traceFile *os.File
	if rf.cpuPath != "" {
		if cpu, err = os.Create(rf.cpuPath); err != nil {
			return nil, nil, fmt.Errorf("cli: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			_ = cpu.Close()
			return nil, nil, fmt.Errorf("cli: cpu profile: %w", err)
		}
	}
	var jsonl *trace.JSONL
	if rf.TracePath != "" {
		if traceFile, err = os.Create(rf.TracePath); err != nil {
			if cpu != nil {
				pprof.StopCPUProfile()
				_ = cpu.Close()
			}
			return nil, nil, err
		}
		jsonl = trace.NewJSONL(traceFile)
		sink = jsonl
	}
	return sink, func() error {
		var errs []error
		if jsonl != nil {
			errs = append(errs, jsonl.Flush(), traceFile.Close())
		}
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if rf.memPath != "" {
			errs = append(errs, writeHeapProfile(rf.memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // settle the heap so the snapshot reflects live objects
	if err := pprof.WriteHeapProfile(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
