package probe

import (
	"testing"

	"repro/internal/hierarchy"
)

func TestDebugSenderEviction(t *testing.T) {
	e, lines, _, sender := setup(t, 11, false)
	h := e.Host()
	m := NewMonitor(e, Parallel, lines)
	m.Prime()

	// State after prime.
	priv := 0
	for _, va := range lines {
		if h.InPrivate(0, e.Main.Translate(va)) {
			priv++
		}
	}
	t.Logf("lines private=%d/%d", priv, len(lines))

	// Sender access via the scheduler.
	h.Schedule(hierarchy.Event{Time: h.Clock().Now() + 10, Core: 2, PA: sender, Refetch: true})
	e.Main.Idle(100)

	inv := 0
	for _, va := range lines {
		pa := e.Main.Translate(va)
		if !h.InSF(pa) || !h.InPrivate(0, pa) {
			inv++
			t.Logf("line %#x: inSF=%v inPriv=%v", va, h.InSF(pa), h.InPrivate(0, pa))
		}
	}
	t.Logf("lines invalidated=%d senderInSF=%v", inv, h.InSF(sender))

	lat := m.probeLatency()
	t.Logf("probe lat=%d thresh=%.0f", lat, m.detectThresh)
}
