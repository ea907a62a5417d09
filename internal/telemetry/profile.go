package telemetry

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"sync"
)

// ProfileConfig names the profile outputs a command should produce.
// Empty paths disable the corresponding profile.
type ProfileConfig struct {
	// CPUProfile receives a pprof CPU profile.
	CPUProfile string
	// MemProfile receives a pprof heap profile written at Stop.
	MemProfile string
	// Trace receives a runtime execution trace.
	Trace string
}

// RegisterFlags registers the conventional -cpuprofile, -memprofile and
// -trace flags on fs, binding them to p.
func (p *ProfileConfig) RegisterFlags(fs *flag.FlagSet) {
	p.RegisterFlagsNamed(fs, "cpuprofile", "memprofile", "trace")
}

// RegisterFlagsNamed registers the profile flags under explicit names,
// for commands whose flag namespace already uses one of the defaults
// (cmd/molsim's -trace replays a cache trace, so it registers the
// execution trace as -exectrace).
func (p *ProfileConfig) RegisterFlagsNamed(fs *flag.FlagSet, cpu, mem, trace string) {
	fs.StringVar(&p.CPUProfile, cpu, "", "write a pprof CPU profile to `file`")
	fs.StringVar(&p.MemProfile, mem, "", "write a pprof heap profile to `file` on exit")
	fs.StringVar(&p.Trace, trace, "", "write a runtime execution trace to `file`")
}

// Start begins the requested profiles and returns the stop function
// that finishes them (writing the heap profile, stopping the CPU
// profile and execution trace, closing files). Stop is safe to call
// exactly once; commands typically `defer stop()` right after Start.
// On error every profile already started is stopped before returning.
func (p ProfileConfig) Start() (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() error {
		var first error
		if cpuF != nil {
			pprof.StopCPUProfile()
			if cerr := cpuF.Close(); first == nil {
				first = cerr
			}
			cpuF = nil
		}
		if traceF != nil {
			rtrace.Stop()
			if cerr := traceF.Close(); first == nil {
				first = cerr
			}
			traceF = nil
		}
		if p.MemProfile != "" {
			if merr := writeHeapProfile(p.MemProfile); first == nil {
				first = merr
			}
		}
		return first
	}

	if p.CPUProfile != "" {
		cpuF, err = os.Create(p.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("telemetry: cpu profile: %w", err)
		}
		if err = pprof.StartCPUProfile(cpuF); err != nil {
			_ = cpuF.Close() // already failing; the start error wins
			cpuF = nil
			return nil, fmt.Errorf("telemetry: cpu profile: %w", err)
		}
	}
	if p.Trace != "" {
		traceF, err = os.Create(p.Trace)
		if err != nil {
			_ = cleanup()
			return nil, fmt.Errorf("telemetry: execution trace: %w", err)
		}
		if err = rtrace.Start(traceF); err != nil {
			_ = traceF.Close() // already failing; the start error wins
			traceF = nil
			_ = cleanup()
			return nil, fmt.Errorf("telemetry: execution trace: %w", err)
		}
	}

	var once sync.Once
	return func() error {
		var ferr error
		once.Do(func() { ferr = cleanup() })
		return ferr
	}, nil
}

// writeHeapProfile snapshots the heap after a GC, as `go test
// -memprofile` does.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: heap profile: %w", err)
	}
	runtime.GC()
	err = pprof.Lookup("heap").WriteTo(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("telemetry: heap profile: %w", err)
	}
	return nil
}
