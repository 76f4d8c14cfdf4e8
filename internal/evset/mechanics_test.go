package evset

import (
	"testing"

	"repro/internal/memory"
)

func TestDebugLLCEvictionMechanics(t *testing.T) {
	e := newQuietEnv(t, 2)
	cfg := e.Host().Config()
	h := e.Host()
	cands := NewCandidates(e, DefaultPoolSize(cfg), 0)
	ta := cands.Addrs[0]
	pool := cands.Addrs[1:]
	t.Logf("thresholds: private=%.1f llc=%.1f", e.ThreshPrivate, e.ThreshLLC)

	target := e.Main.SetOf(ta)
	var congruent, other []memory.VAddr
	for _, va := range pool {
		if e.Main.SetOf(va) == target {
			congruent = append(congruent, va)
		} else if len(other) < 4*cfg.LLCWays {
			other = append(other, va)
		}
	}
	t.Logf("congruent=%d LLCWays=%d", len(congruent), cfg.LLCWays)

	e.Main.LoadShared(e.Helper, ta)
	pa := e.Main.Translate(ta)
	t.Logf("after LoadShared: inLLC=%v inSF=%v inPriv0=%v inPriv1=%v",
		h.InLLC(pa), h.InSF(pa), h.InPrivate(0, pa), h.InPrivate(1, pa))
	e.Main.EvictPrivate(ta)
	t.Logf("after EvictPrivate: inLLC=%v inPriv0=%v", h.InLLC(pa), h.InPrivate(0, pa))

	e.Main.LoadSharedAll(e.Helper, congruent[:cfg.LLCWays])
	t.Logf("after traversal of %d congruent: inLLC=%v", cfg.LLCWays, h.InLLC(pa))
	lat, lvl := e.Main.TimedAccess(ta)
	t.Logf("timed access: lat=%d lvl=%v", lat, lvl)
}
