package experiments

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/hierarchy"
)

func TestCellRegistry(t *testing.T) {
	ids := CellIDs()
	if !sort.StringsAreSorted(ids) {
		t.Error("CellIDs not sorted")
	}
	for _, want := range []string{
		"evset/gt", "evset/gtop", "evset/ps", "evset/psop", "evset/bins",
		"probe/parallel", "probe/sequential", "probe/detect",
	} {
		c, ok := LookupCell(want)
		if !ok {
			t.Errorf("cell %q not registered", want)
			continue
		}
		if c.ID != want || c.Run == nil || c.Desc == "" {
			t.Errorf("cell %q incomplete: %+v", want, c)
		}
		if c.Unit != "cycles" && c.Unit != "rate" {
			t.Errorf("cell %q has unknown unit %q", want, c.Unit)
		}
	}
	if _, ok := LookupCell("nope"); ok {
		t.Error("LookupCell accepted an unknown id")
	}
	if lines := CellList(); len(lines) != len(ids) || !strings.Contains(lines[0], ids[0]) {
		t.Errorf("CellList malformed: %v", lines)
	}
}

// TestCellTrialDeterminism checks a cell obeys the engine contract: the
// same config and seed yield the same sample on a fresh host and on a
// pooled, reset host.
func TestCellTrialDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("cell runs are slow")
	}
	cell, _ := LookupCell("probe/parallel")
	cfg := hierarchy.Scaled(2)
	samples := runAll(t, 4, 1, 5, func(tr *Trial) Sample {
		// Trials 0/2 and 1/3 share seeds; 2 and 3 run on recycled hosts.
		return cell.Run(tr.WithSeed(uint64(42+tr.Index%2)), cfg)
	})
	if !reflect.DeepEqual(samples[0], samples[2]) || !reflect.DeepEqual(samples[1], samples[3]) {
		t.Errorf("cell trial not replayable on a pooled host: %+v", samples)
	}
}
