package hierarchy

import (
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/memory"
)

func toTag(pa memory.PAddr) cache.Tag { return cache.Tag(pa.Line()) }

// Event is an externally scheduled access: the victim's code fetches are
// enqueued at absolute virtual times and applied to the hierarchy as the
// clock passes them, independent of what the attacker is doing.
type Event struct {
	Time clock.Cycles
	Core int
	PA   memory.PAddr
	// Refetch drops the core's private copies before the access so it
	// re-allocates an SF entry (a sender/victim deliberately signalling
	// through the set evicts its own copy between accesses; code fetches
	// likewise re-miss after Prime+Probe evicted the line).
	Refetch bool
	// Done, when non-nil, is invoked after the access is applied; the
	// victim package uses it to record ground truth.
	Done func(t clock.Cycles)
}

// eventQueue is a binary min-heap ordered by Event.Time. The sift
// routines replicate container/heap's up/down exactly — pop order for
// equal-time events is part of the determinism contract — but operate on
// Event values directly, avoiding the interface{} boxing (one heap
// allocation per event) the stdlib API imposes.
type eventQueue struct {
	events   []Event
	draining bool
}

func (q *eventQueue) Len() int           { return len(q.events) }
func (q *eventQueue) less(i, j int) bool { return q.events[i].Time < q.events[j].Time }
func (q *eventQueue) swap(i, j int)      { q.events[i], q.events[j] = q.events[j], q.events[i] }

func (q *eventQueue) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q.swap(i, j)
		j = i
	}
}

func (q *eventQueue) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && q.less(j2, j1) {
			j = j2 // = 2*i + 2  // right child
		}
		if !q.less(j, i) {
			break
		}
		q.swap(i, j)
		i = j
	}
}

func (q *eventQueue) push(e Event) {
	q.events = append(q.events, e)
	q.up(len(q.events) - 1)
}

func (q *eventQueue) popMin() Event {
	n := len(q.events) - 1
	q.swap(0, n)
	q.down(0, n)
	e := q.events[n]
	q.events[n].Done = nil // release the callback for the collector
	q.events = q.events[:n]
	return e
}

// Schedule enqueues an external access at an absolute time. Events in the
// past (relative to the current clock) are applied at the next drain.
func (h *Host) Schedule(e Event) {
	h.sched.push(e)
}

// ScheduledLen returns the number of pending scheduled events.
func (h *Host) ScheduledLen() int { return h.sched.Len() }

// drainScheduled applies every scheduled event whose time has passed.
// The common case, nothing due, is decided inline on every access;
// drainDue does the work.
func (h *Host) drainScheduled() {
	if h.sched.due(h.clk.Now()) {
		h.drainDue()
	}
}

// due reports whether an event is due at now.
func (q *eventQueue) due(now clock.Cycles) bool {
	return len(q.events) != 0 && q.events[0].Time <= now
}

// drainDue applies the due events in time order. It re-enters
// accessState, so a guard prevents recursion: events applied while
// draining do not recursively drain.
func (h *Host) drainDue() {
	if h.sched.draining {
		return
	}
	h.sched.draining = true
	now := h.clk.Now()
	for h.sched.Len() > 0 && h.sched.events[0].Time <= now {
		e := h.sched.popMin()
		if e.Refetch {
			h.dropPrivate(e.Core, e.PA)
		}
		h.accessState(e.Core, e.PA)
		if e.Done != nil {
			e.Done(e.Time)
		}
	}
	h.sched.draining = false
}
