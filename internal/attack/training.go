package attack

import (
	"sort"

	"repro/internal/evset"
	"repro/internal/hierarchy"
	"repro/internal/memory"
	"repro/internal/probe"
	"repro/internal/psd"
	"repro/internal/victim"
	"repro/internal/xrand"
)

// TrainingData holds labeled traces for the two classifiers.
type TrainingData struct {
	Target    []*probe.Trace
	NonTarget []*probe.Trace
	// Labeled pairs for the boundary forest.
	Traces []*probe.Trace
	Truth  []*victim.SignRecord
}

// trainingPool lazily allocates a candidate pool at the victim's target
// offset and resolves congruent lines by privileged inspection — the
// training phase runs attacker and victim in one container where the
// attacker can validate sets against the mapped victim binary (§7.2), so
// ground-truth set resolution is the faithful model.
type trainingPool struct {
	cands *evset.Candidates
	bySet map[hierarchy.SetID][]memory.VAddr
}

func (s *Session) newTrainingPool() *trainingPool {
	cands := evset.NewCandidates(s.Env, 2*evset.DefaultPoolSize(s.H.Config()), s.V.TargetOffset())
	tp := &trainingPool{cands: cands, bySet: make(map[hierarchy.SetID][]memory.VAddr)}
	for _, va := range cands.Addrs {
		id := s.Env.Main.SetOf(va)
		tp.bySet[id] = append(tp.bySet[id], va)
	}
	return tp
}

// linesFor returns `ways` lines congruent to the set, or nil.
func (tp *trainingPool) linesFor(id hierarchy.SetID, ways int) []memory.VAddr {
	vas := tp.bySet[id]
	if len(vas) < ways {
		return nil
	}
	return vas[:ways]
}

// CollectTrainingData gathers labeled traces from this session by
// monitoring the true target set and a sample of non-target sets while
// the victim signs.
func (s *Session) CollectTrainingData(p psd.Params, targetTraces, nonTargetTraces int) TrainingData {
	var td TrainingData
	tp := s.newTrainingPool()
	ways := s.H.Config().SFWays

	targetLines := tp.linesFor(s.V.TargetSet(), ways)
	if targetLines != nil {
		m := probe.NewMonitor(s.Env, probe.Parallel, targetLines)
		for tries := 0; len(td.Target) < targetTraces && tries < 6*targetTraces; tries++ {
			tr := s.CaptureWhileBusy(m, p.TraceCycles)
			// Keep only traces the ladder actually overlapped: a trace
			// captured while the victim was between ladder executions
			// carries no signal and would poison the positive class
			// (the de-synchronization problem, §7.2).
			rec := s.RecordOverlapping(tr)
			if rec == nil || !ladderCovers(rec, tr, 0.5) {
				continue
			}
			td.Target = append(td.Target, tr)
			td.Traces = append(td.Traces, tr)
			td.Truth = append(td.Truth, rec)
		}
		// Longer traces for the boundary forest.
		for i := 0; i < 3; i++ {
			tr := s.CaptureWhileBusy(m, s.V.RequestDuration())
			td.Traces = append(td.Traces, tr)
			td.Truth = append(td.Truth, s.RecordOverlapping(tr))
		}
	}

	// Non-target sets: the victim's hot lines first (the MAdd/MDouble
	// near-false-positives of §7.2), then arbitrary other sets — visited
	// in sorted order, never map order: training-set selection feeds the
	// classifiers, so a nondeterministic pick here would break the
	// byte-identical-report contract of every downstream harness.
	var nonTargetIDs []hierarchy.SetID
	for _, hl := range s.V.Layout.HotLines {
		nonTargetIDs = append(nonTargetIDs, s.V.Agent().SetOf(hl))
	}
	poolIDs := make([]hierarchy.SetID, 0, len(tp.bySet))
	for id := range tp.bySet {
		poolIDs = append(poolIDs, id)
	}
	sort.Slice(poolIDs, func(a, b int) bool {
		if poolIDs[a].Slice != poolIDs[b].Slice {
			return poolIDs[a].Slice < poolIDs[b].Slice
		}
		return poolIDs[a].Index < poolIDs[b].Index
	})
	for _, id := range poolIDs {
		if id != s.V.TargetSet() {
			nonTargetIDs = append(nonTargetIDs, id)
		}
		if len(nonTargetIDs) >= 4*nonTargetTraces {
			break
		}
	}
	for _, id := range nonTargetIDs {
		if len(td.NonTarget) >= nonTargetTraces {
			break
		}
		if id == s.V.TargetSet() {
			continue
		}
		lines := tp.linesFor(id, ways)
		if lines == nil {
			continue
		}
		m := probe.NewMonitor(s.Env, probe.Parallel, lines)
		td.NonTarget = append(td.NonTarget, s.CaptureWhileBusy(m, p.TraceCycles))
	}
	return td
}

// ladderCovers reports whether the record's ladder overlaps at least
// frac of the trace window.
func ladderCovers(rec *victim.SignRecord, tr *probe.Trace, frac float64) bool {
	if len(rec.IterStarts) == 0 {
		return false
	}
	lo := maxC(rec.IterStarts[0], tr.Start)
	hi := minC(rec.IterStarts[len(rec.IterStarts)-1], tr.End)
	if hi <= lo {
		return false
	}
	return float64(hi-lo) >= frac*float64(tr.End-tr.Start)
}

// TrainingStats summarizes classifier training (paper: 1.02% FN, 0.01%
// FP on the validation split, §7.2).
type TrainingStats struct {
	TargetTraces    int
	NonTargetTraces int
	FalseNegative   float64
	FalsePositive   float64
}

// TrainScanner collects this session's training data and fits the PSD
// scanner on it, returning the scanner, the data (which TrainExtractor
// fits the boundary forest on, drawing from the same rng after the
// scanner) and the PSD validation metrics. When the training pool
// cannot assemble labelled traces for both classes — an
// index-scrambling defense (randomize, scatter) scatters the
// page-offset pool so thinly that no monitored set resolves — it
// returns a nil scanner so the caller can fail its training step
// instead of panicking inside the classifier.
func (s *Session) TrainScanner(p psd.Params, rng *xrand.Rand) (*psd.Scanner, TrainingData, TrainingStats) {
	td := s.CollectTrainingData(p, 12, 24)
	if len(td.Target) == 0 || len(td.NonTarget) == 0 {
		return nil, td, TrainingStats{TargetTraces: len(td.Target), NonTargetTraces: len(td.NonTarget)}
	}
	scanner, m := psd.TrainScanner(p, td.Target, td.NonTarget, rng)
	return scanner, td, TrainingStats{
		TargetTraces:    len(td.Target),
		NonTargetTraces: len(td.NonTarget),
		FalseNegative:   m.FalseNegativeRate(),
		FalsePositive:   m.FalsePositiveRate(),
	}
}
