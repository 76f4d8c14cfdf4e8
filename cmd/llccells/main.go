// Command llccells renders views of a campaign checkpoint log
// (internal/artifact `.cells` file) without re-running any cell: the
// log plus its sweep spec are enough to reproduce the aggregated
// JSON/CSV artifact, slice it by cell coordinates, dump raw per-trial
// samples, or report which cells a partial log still misses.
//
//	llccells -spec grid.json -cells grid.cells                 # aggregate JSON artifact
//	llccells -spec grid.json -cells grid.cells -csv -o out.csv # CSV view
//	llccells -spec grid.json -cells grid.cells -status         # cells-done / cells-missing / bytes report
//	llccells -spec grid.json -cells grid.cells -filter QLRU    # only cells whose key contains QLRU
//	llccells -spec grid.json -cells grid.cells -trials         # ndjson per-trial dump
//
// The spec names the grid the log belongs to; the log's header
// fingerprint is checked against it, so a log from a different grid,
// seed or trial count is rejected rather than mislabelled. A complete
// log exports the byte-identical artifact `llcsweep` would print for
// the same spec. A PARTIAL log (from an interrupted or sharded run)
// exports only the cells it holds — missing cells are reported on
// stderr and listed by -status, never fabricated or aggregated — so
// long campaigns can be inspected mid-flight.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/artifact"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/sweep"

	// Register the end-to-end attack scenarios so scenario/<id> cells in
	// specs resolve, mirroring cmd/llcsweep.
	_ "repro/internal/scenario"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// cellView pairs one expanded grid cell with its decoded checkpoint
// samples (nil when the log misses the cell).
type cellView struct {
	cell    sweep.Cell
	samples []experiments.Sample
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("llccells", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specFile = fs.String("spec", "", "JSON sweep spec the log belongs to (required)")
		cellsLog = fs.String("cells", "", "checkpoint log to read (required)")
		asCSV    = fs.Bool("csv", false, "emit CSV instead of JSON")
		outFile  = fs.String("o", "", "write the view to a file instead of stdout")
		status   = fs.Bool("status", false, "report done/missing cells instead of exporting")
		filter   = fs.String("filter", "", "restrict to cells whose key contains this substring")
		trials   = fs.Bool("trials", false, "dump raw per-trial samples as ndjson instead of aggregating")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *specFile == "" || *cellsLog == "" {
		fmt.Fprintln(stderr, "usage: llccells -spec grid.json -cells grid.cells [-status | -trials | [-csv] [-o FILE]] [-filter SUBSTR]")
		return 2
	}
	if *status && *trials {
		fmt.Fprintln(stderr, "llccells: -status and -trials are mutually exclusive")
		return 2
	}

	data, err := os.ReadFile(*specFile)
	if err != nil {
		fmt.Fprintf(stderr, "llccells: %v\n", err)
		return 2
	}
	spec, err := sweep.DecodeSpec(bytes.NewReader(data))
	if err != nil {
		fmt.Fprintf(stderr, "llccells: spec %s: %v\n", *specFile, err)
		return 2
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(stderr, "llccells: %v\n", err)
		return 2
	}

	// Open verifies the header fingerprint and repairs torn tails and
	// duplicate keys exactly like a resume would; whatever it drops is
	// reported as missing rather than exported.
	log, err := artifact.Open(*cellsLog, campaign.Fingerprint(spec))
	if err != nil {
		fmt.Fprintf(stderr, "llccells: %v\n", err)
		return 1
	}
	defer log.Close()
	if log.DroppedTail > 0 || log.DroppedDuplicates > 0 {
		fmt.Fprintf(stderr, "llccells: %s: dropped %d unverified tail record(s) and %d duplicated cell(s)\n",
			*cellsLog, log.DroppedTail, log.DroppedDuplicates)
	}

	cls := sweep.Expand(spec)
	var views []cellView
	var missing []sweep.Cell
	var payloadBytes int64
	for _, c := range cls {
		if *filter != "" && !strings.Contains(c.Key, *filter) {
			continue
		}
		payload, ok := log.Get(c.Key)
		if !ok {
			missing = append(missing, c)
			continue
		}
		payloadBytes += int64(len(payload))
		ss, err := campaign.DecodeSamples(payload, spec.Trials)
		if err != nil {
			// The fingerprint pins the trial count, so an undecodable
			// verified record means a foreign writer or a bug: refuse to
			// render it as data.
			fmt.Fprintf(stderr, "llccells: cell %s: %v\n", c.Coords(), err)
			return 1
		}
		views = append(views, cellView{cell: c, samples: ss})
	}

	if *status {
		scope := "grid"
		if *filter != "" {
			scope = fmt.Sprintf("cells matching %q", *filter)
		}
		// The byte/record line is storage accounting for operators sizing
		// -workdir and retention: payload bytes are the decoded sample
		// records in scope, trials the samples they hold.
		fmt.Fprintf(stdout, "log %s: %d of %d %s cell(s) done, %d missing\n",
			*cellsLog, len(views), len(views)+len(missing), scope, len(missing))
		fmt.Fprintf(stdout, "records: %d cell payload(s), %d trial sample(s), %d payload byte(s)\n",
			len(views), len(views)*spec.Trials, payloadBytes)
		for _, c := range missing {
			fmt.Fprintf(stdout, "missing %s\n", c.Coords())
		}
		return 0
	}
	if len(missing) > 0 {
		// The export never invents samples: missing cells are absent from
		// the view, not zero-filled rows that would skew deltas silently.
		fmt.Fprintf(stderr, "llccells: partial log: %d cell(s) missing from %s are omitted, not aggregated (use -status to list them)\n",
			len(missing), *cellsLog)
	}

	render := func(w io.Writer) error {
		if *trials {
			return writeTrials(w, views)
		}
		// Aggregate exactly the present cells through the same pure fold
		// the sweep uses, so a complete log reproduces llcsweep's artifact
		// byte-for-byte.
		present := make([]sweep.Cell, len(views))
		flat := make([]experiments.Sample, 0, len(views)*spec.Trials)
		for i, v := range views {
			present[i] = v.cell
			flat = append(flat, v.samples...)
		}
		res := sweep.Aggregate(spec, present, flat)
		if *asCSV {
			return res.WriteCSV(w)
		}
		return res.WriteJSON(w)
	}
	if *outFile == "" {
		err = render(stdout)
	} else {
		err = artifact.WriteFile(*outFile, render)
	}
	if err != nil {
		fmt.Fprintf(stderr, "llccells: %v\n", err)
		return 1
	}
	return 0
}

// trialRow is one ndjson line of the -trials dump: a cell's coordinates
// plus its raw per-trial samples in trial order.
type trialRow struct {
	Key    string        `json:"key"`
	Coords string        `json:"coords"`
	Trials []trialSample `json:"trials"`
}

// trialSample is one decoded checkpoint sample.
type trialSample struct {
	OK    bool    `json:"ok"`
	Value float64 `json:"value"`
}

// writeTrials renders the per-trial ndjson view in grid order.
func writeTrials(w io.Writer, views []cellView) error {
	enc := json.NewEncoder(w)
	for _, v := range views {
		row := trialRow{Key: v.cell.Key, Coords: v.cell.Coords(), Trials: make([]trialSample, len(v.samples))}
		for i, s := range v.samples {
			row.Trials[i] = trialSample{OK: s.OK, Value: s.Value}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return nil
}
