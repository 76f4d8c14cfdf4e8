package main

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"
)

// The benchmark owns a reference loop whose time moves only with the
// machine, never with the program. The host the bounds were set on
// drifts in speed by tens of percent over minutes, so the end-to-end
// times are reported in reference seconds: host seconds scaled by
// refNominalMS over the reference loop's mean time in the same stretch
// of the run (see normalizer).

// refNominalMS is a nominal reference-loop time. A time in reference
// seconds is the host time the step would take if the loop took this
// long; only ratios between runs of one workload are meaningful.
const refNominalMS = 2.0

// refBurst is how many back-to-back reference-loop samples one
// calibration burst takes.
const refBurst = 8

// refPoints is how many calibration bursts a workload with short ops
// spreads between them (service).
const refPoints = 60

// refInterval is the background sampler's period for workloads with
// long ops (keyrecovery, grid).
const refInterval = 20 * time.Millisecond

// refSample is one reference-loop time, at T seconds into the run.
type refSample struct {
	T, MS float64
}

// refArray is the reference loop's 4 MB working set.
var refArray = make([]uint32, 1<<20)

// refSink keeps the reference loop's result live.
var refSink float64

// refLoop is the machine-speed reference: an xorshift walk over a 4 MB
// array with a math.Log per step. It returns its host time in ms.
func refLoop() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	acc := 0.0
	t0 := time.Now()
	for i := range 1 << 14 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x & (1<<20 - 1)
		refArray[j] += uint32(i)
		acc += math.Log(float64(refArray[j] | 1))
	}
	d := time.Since(t0)
	refSink += acc
	return float64(d) / float64(time.Millisecond)
}

// since is t in seconds into the run.
func (b *bench) since(t time.Time) float64 { return t.Sub(b.t0).Seconds() }

// calibrate takes one calibration burst now.
func (b *bench) calibrate() {
	if len(b.ref) == 0 {
		refLoop() // faults the working set in; not a sample
	}
	for range refBurst {
		ms := refLoop()
		b.ref = append(b.ref, refSample{b.since(time.Now()), ms})
	}
}

// calibrateBefore takes a burst before op i when i falls on the run's
// calibration stride; workloads with short ops call it between ops.
func (b *bench) calibrateBefore(i int) {
	if i%max(1, len(b.ops)/refPoints) == 0 {
		b.calibrate()
	}
}

// sampleDuring samples the reference loop every refInterval from a
// background goroutine, for workloads whose ops are too long to
// calibrate between. The returned func stops it, waits for it and
// keeps its samples.
func (b *bench) sampleDuring() (stop func()) {
	var (
		samples []refSample // the goroutine's until wg.Wait returns
		quit    = make(chan struct{})
		wg      sync.WaitGroup
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(refInterval)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
			}
			ms := refLoop()
			samples = append(samples, refSample{b.since(time.Now()), ms})
		}
	}()
	return func() {
		close(quit)
		wg.Wait()
		b.ref = append(b.ref, samples...)
	}
}

// refMS is every reference sample's time, in ms.
func (b *bench) refMS() []float64 {
	ms := make([]float64, len(b.ref))
	for i, s := range b.ref {
		ms[i] = s.MS
	}
	return ms
}

// normalizer converts a stretch of host time into reference seconds.
type normalizer []refSample // sorted by T

func (b *bench) normalizer() normalizer {
	n := slices.Clone(normalizer(b.ref))
	slices.SortFunc(n, func(x, y refSample) int { return cmp.Compare(x.T, y.T) })
	return n
}

// refWindowS is the least half-width of the window whose samples
// calibrate a stretch of the run.
const refWindowS = 0.5

// scale is refNominalMS over the mean reference time of the samples
// within max(half the stretch, refWindowS) of the stretch [from, to]'s
// midpoint; without such samples it uses the nearest one, and without
// any it is 1.
func (n normalizer) scale(from, to float64) float64 {
	if len(n) == 0 {
		return 1
	}
	mid, half := (from+to)/2, max((to-from)/2, refWindowS)
	lo, _ := slices.BinarySearchFunc(n, mid-half, func(s refSample, t float64) int { return cmp.Compare(s.T, t) })
	sum, k := 0.0, 0
	for _, s := range n[lo:] {
		if s.T > mid+half {
			break
		}
		sum += s.MS
		k++
	}
	if k == 0 {
		near := n[min(lo, len(n)-1)]
		if lo > 0 && mid-n[lo-1].T < near.T-mid {
			near = n[lo-1]
		}
		sum, k = near.MS, 1
	}
	return refNominalMS / (sum / float64(k))
}

// scaleSpans returns each host duration xs[i], spent in the stretch
// spans[i], in reference seconds.
func (n normalizer) scaleSpans(xs []float64, spans []span) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * n.scale(spans[i].From, spans[i].To)
	}
	return out
}

// span is a stretch of the run, in seconds since its start.
type span struct {
	From, To float64
}
