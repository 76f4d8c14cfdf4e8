// Package campaign turns a one-shot sweep into a resumable, sharded
// run: the spec's pending grid cells run through sweep's grid executor
// (sweep.RunCells), every completed cell is checkpointed to an
// append-only artifact log (internal/artifact) by the worker that
// finished its last trial, and a resumed run skips exactly the cells
// whose checkpoint records verify — re-running everything else.
// Because a cell's trial seeds derive from its own coordinates (sweep
// cell-coordinate seeding) and engine cancellation only ever lands
// between trials, a cell computed after a crash is byte-identical to
// the one the interrupted run would have produced, so a resumed
// campaign's final artifact is byte-for-byte the uninterrupted run's.
//
// The checkpoint unit is the CELL, the scheduling unit the TRIAL: the
// engine's workers claim trials across all pending cells, so W workers
// share even a one-cell grid, while a record still holds a whole cell
// or nothing (the checkpoint granularity equals the durability
// granularity). A campaign and sweep.Run therefore run a grid the same
// way; the campaign adds the restore phase and the log.
//
// One campaign can also span PROCESSES or machines. A run given
// Options.Owns computes only the cells that function accepts, into its
// own log, and Merge reassembles the part logs into one log
// byte-identical to what an uninterrupted sequential single-process
// run would have written (determinism clause 8). The campaign does not
// know how the grid was cut: llcsweep -shard i/N owns the round-robin
// residue class ci%N == i, and any other predicate (a contiguous cell
// range, say) works the same way. Callers validate their own partition
// parameters. The artifact log is the only rendezvous — parts share no
// state and need no coordinator while running.
package campaign

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/sweep"
)

// Fingerprint derives the spec identity a checkpoint log is bound to:
// FNV-64a over the canonical (normalized, struct-ordered) JSON of the
// spec. Any change that could alter any cell's samples — axes, trials,
// seed — changes the fingerprint, so a stale or mismatched checkpoint
// is rejected at open instead of silently mixing two grids.
func Fingerprint(spec sweep.Spec) uint64 {
	spec.Normalize()
	js, err := json.Marshal(spec)
	if err != nil {
		// sweep.Spec is plain data; Marshal cannot fail on it.
		panic("campaign: marshalling spec: " + err.Error())
	}
	h := fnv.New64a()
	h.Write(js)
	return h.Sum64()
}

// Event reports one cell reaching a terminal state, in completion
// order. OnCell observers receive events serialized (never two at
// once).
type Event struct {
	// Cell is the cell's index in sweep.Expand order; Key its canonical
	// coordinate string; Coords the operator-readable rendering.
	Cell   int    `json:"cell"`
	Key    string `json:"key"`
	Coords string `json:"coords"`
	// Done counts cells in a terminal state (skipped or computed) after
	// this event, out of Total.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Skipped marks a cell restored from a verified checkpoint record
	// rather than computed.
	Skipped bool `json:"skipped,omitempty"`
}

// Stats summarises a campaign run for resume reports: how many cells
// the grid had, how many were skipped via verified checkpoint records,
// and how many were computed this run.
type Stats struct {
	Cells   int `json:"cells"`
	Skipped int `json:"skipped"`
	Ran     int `json:"ran"`
	// DroppedTail / DroppedDuplicates surface the checkpoint log's
	// open-time repairs (cells that re-ran because their records did not
	// verify).
	DroppedTail       int `json:"dropped_tail,omitempty"`
	DroppedDuplicates int `json:"dropped_duplicates,omitempty"`
}

// Options configures a campaign run.
type Options struct {
	// Workers is the number of trials in flight at once, across all
	// pending cells; <= 0 selects GOMAXPROCS (via the trial engine's
	// convention).
	Workers int
	// Log, when non-nil, is the open checkpoint log: verified records
	// skip their cells, completed cells append records. Nil runs the
	// campaign uncheckpointed (still partitionable and cancellable).
	Log *artifact.Log
	// OnCell, when non-nil, observes per-cell completions (checkpoint
	// skips included), serialized, in completion order.
	OnCell func(Event)
	// Owns, when non-nil, makes this a partial run over the cells whose
	// Expand index it accepts: only they are restored, computed and
	// checkpointed, Stats and Event totals count only them, and Run
	// returns a nil Result (a part cannot aggregate; merging the part
	// logs and resuming, or exporting, assembles the aggregate). Nil
	// owns the whole grid. Runs whose Owns sets are a disjoint cover of
	// the Expand order merge byte-identically to the sequential log,
	// however the cover was cut (determinism clause 8).
	Owns func(cell int) bool
	// Obs, when non-nil, receives campaign telemetry: cell-terminal
	// counters (campaign_cells_total by state computed/resumed),
	// per-cell wall-duration histogram (campaign_cell_seconds),
	// checkpoint-append bytes (campaign_append_bytes_total), and — on a
	// traced run — one trace process per cell (PID = Expand index,
	// named with the cell's coordinates). Instrumentation reads wall
	// clocks only; the artifact and Result are byte-identical with Obs
	// set or nil (determinism clause 9).
	Obs *obs.Sink
}

// Run executes the spec as a resumable campaign and returns the same
// Result sweep.Run would produce (byte-identical once encoded), plus
// run statistics. Cancelling ctx stops the campaign between trials;
// cells checkpointed before the cancellation are never lost, and the
// error reports how far the run got via Stats. A partial run
// (Options.Owns set) computes only its cells and returns a nil Result.
func Run(ctx context.Context, spec sweep.Spec, opts Options) (*sweep.Result, *Stats, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, nil, err
	}
	cls := sweep.Expand(spec)
	n := spec.Trials
	mine := make([]int, 0, len(cls))
	for ci := range cls {
		if opts.Owns == nil || opts.Owns(ci) {
			mine = append(mine, ci)
		}
	}
	st := &Stats{Cells: len(mine)}
	if opts.Log != nil {
		st.DroppedTail = opts.Log.DroppedTail
		st.DroppedDuplicates = opts.Log.DroppedDuplicates
	}

	// Observability hooks: resolved once, all nil (hence no-op) when
	// opts.Obs carries nothing. Only wall clocks are read.
	var cellsComputed, cellsResumed, appendBytes *obs.Counter
	var cellSec *obs.Histogram
	var tracer *obs.Tracer
	if opts.Obs != nil {
		tracer = opts.Obs.Tracer
		if m := opts.Obs.Metrics; m != nil {
			cellsComputed = m.Counter("campaign_cells_total", "state", "computed")
			cellsResumed = m.Counter("campaign_cells_total", "state", "resumed")
			appendBytes = m.Counter("campaign_append_bytes_total")
			cellSec = m.Histogram("campaign_cell_seconds", nil)
		}
		if tracer != nil {
			for _, ci := range mine {
				tracer.SetProcessName(ci, cls[ci].Coords())
			}
		}
	}

	samples := make([][]experiments.Sample, len(cls))
	pending := make([]int, 0, len(mine))
	done := 0

	// emit serialises OnCell callbacks and checkpoint appends: computed
	// cells arrive from whichever engine worker finished their last
	// trial, the log is not concurrency-safe, and observers expect
	// ordered counts.
	var mu sync.Mutex
	emit := func(ci int, skipped bool) error {
		mu.Lock()
		defer mu.Unlock()
		if skipped {
			cellsResumed.Inc()
		} else {
			if opts.Log != nil {
				before := opts.Log.AppendedBytes()
				if err := opts.Log.Append(cls[ci].Key, EncodeSamples(samples[ci])); err != nil {
					return fmt.Errorf("cell %s: %w", cls[ci].Coords(), err)
				}
				appendBytes.Add(opts.Log.AppendedBytes() - before)
			}
			cellsComputed.Inc()
			st.Ran++
		}
		done++
		if opts.OnCell != nil {
			opts.OnCell(Event{
				Cell:    ci,
				Key:     cls[ci].Key,
				Coords:  cls[ci].Coords(),
				Done:    done,
				Total:   len(mine),
				Skipped: skipped,
			})
		}
		return nil
	}

	// Restore phase: a cell whose record decodes to exactly n samples is
	// skipped; anything else re-runs (a record that fails its checksum
	// never reaches here — artifact.Open already dropped it).
	for _, ci := range mine {
		if opts.Log != nil {
			if payload, ok := opts.Log.Get(cls[ci].Key); ok {
				if ss, err := DecodeSamples(payload, n); err == nil {
					samples[ci] = ss
					st.Skipped++
					if err := emit(ci, true); err != nil {
						return nil, st, err
					}
					continue
				}
				// Undecodable-but-verified record: the spec fingerprint pins
				// the trial count, so this is a foreign writer or a bug —
				// refuse to guess.
				return nil, st, fmt.Errorf("campaign: checkpoint record for cell %s does not decode to %d trials", cls[ci].Coords(), n)
			}
		}
		pending = append(pending, ci)
	}

	// Run phase: the pending cells' trials run through sweep's grid
	// executor, and each cell is checkpointed by the worker that
	// finishes its last trial. A panicking trial, a failed append or a
	// cancellation stops new trials from starting; in-flight trials
	// finish, and a cell is never checkpointed unless complete.
	_, err := sweep.RunCells(ctx, cls, pending, n, opts.Workers, opts.Obs, func(ci int, ss []experiments.Sample, start time.Time) error {
		cellSec.Observe(time.Since(start).Seconds())
		samples[ci] = ss
		return emit(ci, false)
	})
	if err != nil {
		return nil, st, fmt.Errorf("campaign: %w", err)
	}
	if opts.Owns != nil {
		// A part holds only its cells' samples; the aggregate is
		// assembled later from the merged logs.
		return nil, st, nil
	}

	flat := make([]experiments.Sample, 0, len(cls)*n)
	for _, ss := range samples {
		flat = append(flat, ss...)
	}
	return sweep.Aggregate(spec, cls, flat), st, nil
}

// Merge combines the part checkpoint logs into one log at dstPath
// that is byte-identical to the log an uninterrupted sequential
// single-process run of the same spec would have written (determinism
// clause 8: records land in the grid's Expand order, which is the
// order a one-worker campaign appends them). Every source must be
// fingerprinted by this spec; a key two sources disagree about is an
// error, byte-equal duplicates dedupe, and every surviving payload
// must decode to exactly the spec's trial count. Missing cells are
// fine — the merged log is a valid partial checkpoint that a resumed
// run (or an export's cells-missing report) completes.
func Merge(spec sweep.Spec, dstPath string, srcPaths []string) (*artifact.MergeStats, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cls := sweep.Expand(spec)
	order := make([]string, len(cls))
	for i, c := range cls {
		order[i] = c.Key
	}
	n := spec.Trials
	return artifact.Merge(dstPath, Fingerprint(spec), artifact.MergeOptions{
		Order: order,
		Validate: func(key string, payload []byte) error {
			_, err := DecodeSamples(payload, n)
			return err
		},
	}, srcPaths...)
}

// sampleSize is the fixed per-trial encoding: OK byte + float64 bits.
const sampleSize = 9

// EncodeSamples renders a cell's samples as the checkpoint payload: for
// each trial one OK byte and the value's IEEE-754 bits, little-endian.
// Bit-exact floats are what make a resumed aggregate byte-identical to
// an uninterrupted one. Extra scalars and series are deliberately not
// recorded: sweep aggregation consumes only OK and Value, so recording
// more would bloat every record for data no view reads.
func EncodeSamples(ss []experiments.Sample) []byte {
	buf := make([]byte, sampleSize*len(ss))
	for i, s := range ss {
		off := i * sampleSize
		if s.OK {
			buf[off] = 1
		}
		binary.LittleEndian.PutUint64(buf[off+1:off+9], math.Float64bits(s.Value))
	}
	return buf
}

// DecodeSamples parses a checkpoint payload back into exactly n
// samples, rejecting any other shape. Export views (cmd/llccells) use
// it to render per-trial values without re-running a cell.
func DecodeSamples(payload []byte, n int) ([]experiments.Sample, error) {
	if n < 0 || len(payload)%sampleSize != 0 || len(payload)/sampleSize != n {
		return nil, fmt.Errorf("campaign: payload holds %d bytes, want %d trials x %d", len(payload), n, sampleSize)
	}
	out := make([]experiments.Sample, n)
	for i := range out {
		off := i * sampleSize
		switch payload[off] {
		case 0:
		case 1:
			out[i].OK = true
		default:
			return nil, fmt.Errorf("campaign: trial %d has invalid OK byte %d", i, payload[off])
		}
		out[i].Value = math.Float64frombits(binary.LittleEndian.Uint64(payload[off+1 : off+9]))
	}
	return out, nil
}
