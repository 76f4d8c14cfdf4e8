package campaign

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/sweep"
	"repro/internal/xrand"
)

// Test-only cell experiments. They ignore the hierarchy config and
// build no host, so each trial costs only what the test is about.
var (
	// rendezvous is test/barrier's current barrier.
	rendezvous atomic.Pointer[barrier]
	// panicSeed is the trial seed on which test/panic panics.
	panicSeed atomic.Uint64
	// counted counts test/count trials.
	counted atomic.Int64
)

// barrierTimeout bounds a test/barrier trial's wait, so a run that never
// puts two trials in flight fails instead of hanging.
const barrierTimeout = 10 * time.Second

type barrier struct {
	arrived atomic.Int32
	open    chan struct{}
}

func init() {
	experiments.RegisterCell(experiments.Cell{
		ID:   "test/barrier",
		Desc: "succeeds once two trials are in flight at the same time",
		Unit: "rate",
		Run: func(_ *experiments.Trial, _ hierarchy.Config) experiments.Sample {
			b := rendezvous.Load()
			if b.arrived.Add(1) == 2 {
				close(b.open)
			}
			select {
			case <-b.open:
				return experiments.Sample{OK: true, Value: 1}
			case <-time.After(barrierTimeout):
				return experiments.Sample{}
			}
		},
	})
	experiments.RegisterCell(experiments.Cell{
		ID:   "test/panic",
		Desc: "panics on the trial whose seed is panicSeed",
		Unit: "rate",
		Run: func(t *experiments.Trial, _ hierarchy.Config) experiments.Sample {
			if t.Seed == panicSeed.Load() {
				panic("injected trial failure")
			}
			return experiments.Sample{OK: true, Value: 1}
		},
	})
	experiments.RegisterCell(experiments.Cell{
		ID:   "test/count",
		Desc: "counts its trials",
		Unit: "rate",
		Run: func(*experiments.Trial, hierarchy.Config) experiments.Sample {
			counted.Add(1)
			return experiments.Sample{OK: true, Value: 1}
		},
	})
}

// expandSpec normalizes, validates and expands a copy of spec.
func expandSpec(t *testing.T, spec sweep.Spec) []sweep.Cell {
	t.Helper()
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	return sweep.Expand(spec)
}

// TestCampaignSchedulesTrialsNotCells: the workers of a campaign share
// a cell's trials, so a one-cell, two-trial campaign with two workers
// has both trials in flight at once. A per-cell scheduler runs them
// one after the other and the first one times out at the barrier.
func TestCampaignSchedulesTrialsNotCells(t *testing.T) {
	rendezvous.Store(&barrier{open: make(chan struct{})})
	spec := sweep.Spec{Experiments: []string{"test/barrier"}, Policies: []string{"LRU"}, Trials: 2, Seed: 1}
	res, st, err := Run(context.Background(), spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.Ran != 1 || len(res.Cells) != 1 {
		t.Fatalf("stats %+v, %d result cells; want one computed cell", st, len(res.Cells))
	}
	if got := res.Cells[0].SuccessRate; got != 1 {
		t.Fatalf("success rate %g: the cell's two trials never ran concurrently", got)
	}
}

// TestPanickingCellNamedByCoords: a trial that panics fails both grid
// entry points with an error naming its cell's coordinates, whatever
// the worker count; and a one-worker campaign has checkpointed every
// earlier cell, and no later one, by the time it returns.
func TestPanickingCellNamedByCoords(t *testing.T) {
	spec := sweep.Spec{
		Experiments: []string{"test/panic"},
		Policies:    []string{"LRU", "Tree-PLRU", "SRRIP", "QLRU"},
		Trials:      3,
		Seed:        5,
	}
	cls := expandSpec(t, spec)
	const bad = 2
	panicSeed.Store(xrand.Stream(cls[bad].Seed, 1))
	coords := cls[bad].Coords()
	for _, workers := range []int{1, 4} {
		if _, err := sweep.Run(context.Background(), spec, workers); err == nil || !strings.Contains(err.Error(), coords) {
			t.Fatalf("workers=%d: sweep.Run error %v does not name cell %q", workers, err, coords)
		}
		path := filepath.Join(t.TempDir(), "cells.bin")
		log, err := artifact.Create(path, Fingerprint(spec))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = Run(context.Background(), spec, Options{Workers: workers, Log: log})
		log.Close()
		if err == nil || !strings.Contains(err.Error(), coords) {
			t.Fatalf("workers=%d: campaign.Run error %v does not name cell %q", workers, err, coords)
		}
		if workers != 1 {
			continue
		}
		for ci, c := range cls {
			if _, ok := log.Get(c.Key); ok != (ci < bad) {
				t.Errorf("cell %d (%s) checkpointed = %v, want %v", ci, c.Coords(), ok, ci < bad)
			}
		}
	}
}

// TestFailedAppendStopsCampaign: a checkpoint append that fails (the
// log was closed before Run) is returned, and no further trial starts.
func TestFailedAppendStopsCampaign(t *testing.T) {
	spec := sweep.Spec{Experiments: []string{"test/count"}, Policies: []string{"LRU", "QLRU"}, Trials: 3, Seed: 1}
	log, err := artifact.Create(filepath.Join(t.TempDir(), "cells.bin"), Fingerprint(spec))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	counted.Store(0)
	_, st, err := Run(context.Background(), spec, Options{Workers: 1, Log: log})
	if !errors.Is(err, os.ErrClosed) {
		t.Fatalf("err = %v, want the append's %v", err, os.ErrClosed)
	}
	if st.Ran != 0 {
		t.Fatalf("stats %+v: a cell whose append failed counts as computed", st)
	}
	if n := counted.Load(); n != int64(spec.Trials) {
		t.Fatalf("%d trials ran, want %d: the campaign kept claiming trials after the append failed", n, spec.Trials)
	}
}
