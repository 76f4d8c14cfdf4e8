// Package profiling wires the standard runtime/pprof collectors behind
// the -cpuprofile/-memprofile/-blockprofile/-mutexprofile flags of the
// CLIs (cmd/llcattack, cmd/llcsweep), so the simulation hot path can be
// profiled on a real workload without writing a throwaway harness.
// Profiles cover only the run region the caller brackets — flag parsing
// and report writing stay outside — and never touch the report streams,
// so profiling cannot perturb byte-identical output.
package profiling

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// Config selects which profiles to collect; every path may be empty to
// skip that profile, so callers pass flag values through unconditionally.
type Config struct {
	// CPUFile collects a CPU profile across the bracketed region.
	CPUFile string
	// MemFile writes a post-GC heap profile at stop time.
	MemFile string
	// BlockFile writes a goroutine-blocking profile at stop time
	// (contended channel/cond waits; rate 1 — every event).
	BlockFile string
	// MutexFile writes a mutex-contention profile at stop time
	// (fraction 1 — every contended unlock).
	MutexFile string
}

// StartWith begins collection for every profile named in cfg. The
// returned stop function must be called exactly once after the timed
// region: it stops the CPU profile and block/mutex sampling, then
// writes the heap, block, and mutex profiles that were requested.
// Block and mutex sampling are process-global; StartWith enables them
// at full rate only when their files are set and always restores the
// zero rate at stop, so an unprofiled run never pays the sampling cost.
func StartWith(cfg Config) (stop func() error, err error) {
	var cpu *os.File
	if cfg.CPUFile != "" {
		cpu, err = os.Create(cfg.CPUFile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	if cfg.BlockFile != "" {
		runtime.SetBlockProfileRate(1)
	}
	if cfg.MutexFile != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		var firstErr error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				firstErr = err
			}
		}
		if cfg.BlockFile != "" {
			runtime.SetBlockProfileRate(0)
			if err := writeProfile("block", cfg.BlockFile); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cfg.MutexFile != "" {
			runtime.SetMutexProfileFraction(0)
			if err := writeProfile("mutex", cfg.MutexFile); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if cfg.MemFile != "" {
			runtime.GC() // drop unreachable heap so the profile shows live bytes
			if err := writeHeap(cfg.MemFile); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	}, nil
}

// writeProfile dumps one named pprof profile (block, mutex) to path.
func writeProfile(name, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup(name).WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeHeap dumps the heap profile to path.
func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
