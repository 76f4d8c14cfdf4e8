package probe

import (
	"repro/internal/clock"
	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/memory"
)

// CovertResult reports one covert-channel run (§6.1).
type CovertResult struct {
	Sent       int
	Detected   int
	Detections int // total receiver detections (incl. noise)
	// PrimeLatency and ProbeLatency are the run's measured latencies
	// (cycles), for Table 5. Outliers at or above outlierCap are
	// excluded, as in the paper's methodology.
	PrimeLatency  []float64
	ProbeLatency  []float64
	DetectionRate float64
}

// outlierCap mirrors the paper's exclusion of samples above 20,000 cycles
// (interrupts / context switches).
const outlierCap = 20000

// epsilon is the detection error bound: a sender access at time t counts
// as detected if the receiver reports an access in (t, t+epsilon). The
// paper uses 500 cycles (250 ns at 2 GHz); our timing model charges the
// full rdtsc measurement overhead to every probe and a full DRAM base
// latency to the detecting (missing) probe, so one probe period plus one
// miss-probe comes to ~600 cycles. The bound is scaled accordingly; it is
// identical for all strategies, preserving Figure 6's comparisons.
const epsilon = 800

// RunCovertChannel reproduces the experiment of §6.1: a sender thread
// accesses the target SF set every `interval` cycles, `count` times,
// while the receiver monitors the set with the given strategy. A sender
// access is detected if the receiver observes an access within epsilon
// cycles after it.
//
// senderLine must map to the same SF set as the monitor's eviction set;
// the sender runs on its own core, as scheduled accesses on the virtual
// clock.
func RunCovertChannel(e *evset.Env, m *Monitor, senderCore int, senderLine memory.PAddr, interval clock.Cycles, count int) CovertResult {
	h := e.Host()
	clk := h.Clock()

	var sendTimes []clock.Cycles
	base := clk.Now() + interval
	for i := 0; i < count; i++ {
		t := base + clock.Cycles(i)*interval
		h.Schedule(hierarchy.Event{
			Time:    t,
			Core:    senderCore,
			PA:      senderLine,
			Refetch: true,
			Done:    func(at clock.Cycles) { sendTimes = append(sendTimes, at) },
		})
	}

	var res CovertResult
	prime := func() {
		if d := float64(m.Prime()); d < outlierCap {
			res.PrimeLatency = append(res.PrimeLatency, d)
		}
	}
	var detections []clock.Cycles
	prime()
	end := base + clock.Cycles(count+2)*interval
	for clk.Now() < end {
		lat := float64(m.probeLatency())
		if lat < outlierCap {
			res.ProbeLatency = append(res.ProbeLatency, lat)
		}
		if lat > m.detectThresh {
			detections = append(detections, clk.Now())
			prime()
		}
	}

	res.Sent = len(sendTimes)
	res.Detections = len(detections)
	di := 0
	for _, st := range sendTimes {
		// Advance to the first detection at or after st.
		for di < len(detections) && detections[di] <= st {
			di++
		}
		if di < len(detections) && detections[di] <= st+epsilon {
			res.Detected++
			di++
		}
	}
	if res.Sent > 0 {
		res.DetectionRate = float64(res.Detected) / float64(res.Sent)
	}
	return res
}
