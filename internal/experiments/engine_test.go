package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/xrand"
)

// runAll is RunTrials on a background context with no sink, failing the
// test on any error.
func runAll(t *testing.T, n, workers int, seed uint64, fn func(*Trial) Sample) []Sample {
	t.Helper()
	s, err := RunTrials(context.Background(), n, workers, seed, nil, fn)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunTrialsOrderAndSeeds(t *testing.T) {
	const n, base = 37, uint64(99)
	samples := runAll(t, n, 5, base, func(tr *Trial) Sample {
		if tr.Seed != xrand.Stream(base, uint64(tr.Index)) {
			t.Errorf("trial %d seed %#x, want stream value", tr.Index, tr.Seed)
		}
		return Sample{Value: float64(tr.Index), OK: tr.Index%2 == 0}
	})
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d", len(samples), n)
	}
	for i, s := range samples {
		if s.Value != float64(i) {
			t.Fatalf("sample %d carries value %v: results out of trial order", i, s.Value)
		}
	}
	if got := successRate(samples); got != 19.0/37.0 {
		t.Errorf("successRate = %v", got)
	}
}

func TestRunTrialsWorkerCountInvariance(t *testing.T) {
	// A trial whose output depends only on its seed must yield identical
	// sample slices at every worker count.
	run := func(workers int) []Sample {
		return runAll(t, 23, workers, 4242, func(tr *Trial) Sample {
			r := xrand.New(tr.Seed)
			return Sample{OK: r.Bool(), Value: r.Float64(), Extra: []float64{float64(r.Intn(1000))}}
		})
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		if got := run(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d produced different samples", w)
		}
	}
}

func TestRunTrialsEdgeCases(t *testing.T) {
	if s := runAll(t, 0, 4, 1, func(*Trial) Sample { return Sample{} }); s != nil {
		t.Errorf("n=0 should return nil, got %v", s)
	}
	if s := runAll(t, -3, 4, 1, func(*Trial) Sample { return Sample{} }); s != nil {
		t.Errorf("negative n should return nil, got %v", s)
	}
	// workers beyond n must not deadlock or drop trials.
	s := runAll(t, 2, 16, 1, func(tr *Trial) Sample { return Sample{OK: true} })
	if len(s) != 2 || !s[0].OK || !s[1].OK {
		t.Errorf("short run mishandled: %v", s)
	}
}

// TestRunTrialsPanicSurfacesError pins the pool-hardening contract: a
// panicking trial must drain the pool and come back as a clean error
// naming the trial (RunTrials) or as a caller-side panic (the runners'
// Options.run) — never a deadlock or a process abort from a worker goroutine.
func TestRunTrialsPanicSurfacesError(t *testing.T) {
	boom := func(tr *Trial) Sample {
		if tr.Index == 3 {
			panic("boom")
		}
		return Sample{OK: true}
	}
	type result struct {
		samples []Sample
		err     error
	}
	for _, workers := range []int{1, 4, 16} {
		// Report only from the test goroutine: the worker goroutine just
		// ships its result over a channel, so a timeout can't race a late
		// t.Errorf against test completion.
		done := make(chan result, 1)
		go func() {
			s, err := RunTrials(context.Background(), 8, workers, 1, nil, boom)
			done <- result{s, err}
		}()
		select {
		case r := <-done:
			if r.err == nil {
				t.Errorf("workers=%d: RunTrials missed the panic", workers)
				continue
			}
			if !strings.Contains(r.err.Error(), "trial 3") || !strings.Contains(r.err.Error(), "boom") {
				t.Errorf("workers=%d: error %q does not identify the trial", workers, r.err)
			}
			if r.samples != nil {
				t.Errorf("workers=%d: got samples alongside an error", workers)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("workers=%d: RunTrials deadlocked on a panicking trial", workers)
		}
	}
}

// TestRunTrialsCancellation pins the context contract: cancelling the
// ctx stops the run between trials (no trial is ever interrupted
// mid-flight), RunTrials reports the context's error, and every
// worker goroutine exits.
func TestRunTrialsCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int64
		_, err := RunTrials(ctx, 1000, workers, 1, nil, func(tr *Trial) Sample {
			if started.Add(1) == 3 {
				cancel()
			}
			return Sample{OK: true}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The cancel fired inside trial 3; only trials already claimed at
		// that moment may still have run (at most one per worker).
		if n := started.Load(); n > int64(3+workers) {
			t.Errorf("workers=%d: %d trials started after cancellation", workers, n)
		}
	}
	// An already-cancelled ctx runs zero trials.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if _, err := RunTrials(ctx, 10, 4, 1, nil, func(*Trial) Sample { ran = true; return Sample{} }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v", err)
	}
	if ran {
		t.Error("pre-cancelled ctx still ran a trial")
	}
}

// TestRunTrialsCompletedPrefixUnperturbed pins the property the
// campaign layer's checkpoint/resume correctness rests on: the samples
// of trials that complete before a cancellation are byte-identical to
// the same trials of an uninterrupted run (cancellation is only checked
// on trial boundaries and never perturbs a trial's seed or host).
func TestRunTrialsCompletedPrefixUnperturbed(t *testing.T) {
	const n = 64
	full, err := RunTrials(context.Background(), n, 1, 7, nil, func(tr *Trial) Sample {
		r := xrand.New(tr.Seed)
		return Sample{OK: r.Bool(), Value: r.Float64()}
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var got [n]Sample
	var gotMask [n]bool
	_, err = RunTrials(ctx, n, 1, 7, nil, func(tr *Trial) Sample {
		if tr.Index == 10 {
			cancel()
		}
		r := xrand.New(tr.Seed)
		s := Sample{OK: r.Bool(), Value: r.Float64()}
		got[tr.Index], gotMask[tr.Index] = s, true
		return s
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := range got {
		if gotMask[i] && !reflect.DeepEqual(got[i], full[i]) {
			t.Errorf("trial %d sample diverged under cancellation: %+v vs %+v", i, got[i], full[i])
		}
	}
	if !gotMask[10] {
		t.Fatal("cancelling trial never ran")
	}
}

// TestRunTrialsPanicLeavesNoWorkers is the worker-panic goroutine-leak
// audit pinned as a test: when one trial re-panics through the
// recover/record protocol, the remaining workers must all exit (work is
// handed out by an atomic counter, not a channel, so nothing can block
// on an abandoned send) and the process goroutine count must settle
// back to its pre-run level.
func TestRunTrialsPanicLeavesNoWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 4; i++ {
		_, err := RunTrials(context.Background(), 64, 8, 1, nil, func(tr *Trial) Sample {
			if tr.Index == 0 {
				panic("boom")
			}
			return Sample{OK: true}
		})
		if err == nil {
			t.Fatal("panic not surfaced")
		}
	}
	// Workers are wg.Wait()ed before RunTrials returns, so any excess
	// here would be a genuine leak; allow slack for runtime helpers.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d before, %d after panicking runs", before, n)
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRunTrialsRepanicsOnCaller(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Options.run swallowed a trial panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "boom") {
			t.Fatalf("re-raised panic %q lost the original value", msg)
		}
	}()
	Options{Seed: 1, Workers: 2}.run(4, func(tr *Trial) Sample { panic("boom") }, "test")
}

func TestTrialWithSeed(t *testing.T) {
	runAll(t, 1, 1, 9, func(tr *Trial) Sample {
		re := tr.WithSeed(0xdead)
		if re.Seed != 0xdead || re.Index != tr.Index {
			t.Errorf("WithSeed = %+v", re)
		}
		if tr.Seed == 0xdead {
			t.Error("WithSeed mutated the original trial")
		}
		// The reseeded trial must still reach the worker's host pool.
		if re.pool != tr.pool {
			t.Error("WithSeed dropped the host pool")
		}
		return Sample{}
	})
}

func TestSubSeedIndependence(t *testing.T) {
	a := SubSeed(1, "table6", "PageOffset")
	b := SubSeed(1, "table6", "WholeSys")
	c := SubSeed(2, "table6", "PageOffset")
	if a == b || a == c || b == c {
		t.Fatalf("SubSeed collisions: %#x %#x %#x", a, b, c)
	}
	if a != SubSeed(1, "table6", "PageOffset") {
		t.Fatal("SubSeed is not deterministic")
	}
}

// TestReportDeterminism is the engine's contract test: the same seed must
// yield byte-identical report rows whether trials run sequentially or on
// a parallel worker pool sharing pooled (Reset) hosts.
func TestReportDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment runs are slow")
	}
	for _, tc := range []struct {
		id     string
		runner Runner
	}{{"table3", Table3}, {"fig3", Figure3}} {
		seq := tc.runner(Options{Seed: 11, Trials: 3, Workers: 1})
		par := tc.runner(Options{Seed: 11, Trials: 3, Workers: 8})
		if !reflect.DeepEqual(seq.Rows, par.Rows) {
			t.Errorf("%s: workers=1 and workers=8 rows differ:\n%v\nvs\n%v", tc.id, seq.Rows, par.Rows)
		}
		if !reflect.DeepEqual(seq.Notes, par.Notes) {
			t.Errorf("%s: notes differ across worker counts", tc.id)
		}
	}
}
