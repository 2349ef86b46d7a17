package main

import "time"

// schedule is an open-loop schedule: event k of n is due at start + k·period,
// whatever happened to the events before it.
type schedule struct {
	start  time.Time
	period time.Duration
	n      int
	next   int           // first event not taken yet
	late   time.Duration // summed lateness of the events taken
}

func (s *schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.period) }

// done reports whether every event has been taken.
func (s *schedule) done() bool { return s.next >= s.n }

// take returns the events due by now and not taken yet, as the half-open
// range [from, to), and charges each its lateness: how long after its due
// time it was taken. An empty range means the next event is not due yet.
func (s *schedule) take(now time.Time) (from, to int) {
	from = s.next
	for s.next < s.n && !s.due(s.next).After(now) {
		s.late += now.Sub(s.due(s.next))
		s.next++
	}
	return from, s.next
}

// latency is the time from event k's due time to at, so a stall that delays
// event k counts against it even though it was sent late.
func (s *schedule) latency(k int, at time.Time) time.Duration { return at.Sub(s.due(k)) }

// meanLate is the mean lateness of the events taken so far.
func (s *schedule) meanLate() time.Duration {
	if s.next == 0 {
		return 0
	}
	return s.late / time.Duration(s.next)
}
