package clock

import (
	"testing"
	"time"
)

var t0 = time.Unix(1_700_000_000, 0)

// fired returns the fire time t delivered, or false when it has not
// fired.
func fired(t Timer) (time.Time, bool) {
	select {
	case at := <-t.C():
		return at, true
	default:
		return time.Time{}, false
	}
}

func TestFakeFiresDueTimersInDeadlineOrder(t *testing.T) {
	f := NewFake(t0)
	late, early, mid := f.NewTimer(3*time.Second), f.NewTimer(time.Second), f.NewTimer(2*time.Second)
	steps := []struct {
		by   time.Duration
		due  Timer
		when time.Duration
	}{
		{1500 * time.Millisecond, early, time.Second},
		{time.Second, mid, 2 * time.Second},
		{time.Second, late, 3 * time.Second},
	}
	for i, s := range steps {
		f.Advance(s.by)
		for _, tm := range []Timer{early, mid, late} {
			at, ok := fired(tm)
			if tm != s.due {
				if ok {
					t.Fatalf("step %d: a timer not yet due fired at %v", i, at.Sub(t0))
				}
				continue
			}
			if !ok || !at.Equal(t0.Add(s.when)) {
				t.Fatalf("step %d: the timer due at %v fired %v (at %v)", i, s.when, ok, at.Sub(t0))
			}
		}
	}
	if got := f.Now().Sub(t0); got != 3500*time.Millisecond {
		t.Fatalf("Now is %v past the start, want 3.5s", got)
	}
	if _, ok := fired(f.NewTimer(0)); !ok {
		t.Fatal("a timer armed for 0 did not fire at once")
	}
}

func TestFakeStoppedOrResetTimerDoesNotFire(t *testing.T) {
	f := NewFake(t0)
	stopped, moved := f.NewTimer(time.Second), f.NewTimer(time.Second)
	if !stopped.Stop() {
		t.Fatal("Stop of an armed timer reported it was not armed")
	}
	if !moved.Reset(5 * time.Second) {
		t.Fatal("Reset of an armed timer reported it was not armed")
	}
	f.Advance(2 * time.Second)
	if _, ok := fired(stopped); ok {
		t.Fatal("a stopped timer fired")
	}
	if _, ok := fired(moved); ok {
		t.Fatal("a timer reset past the new time fired")
	}
	f.Advance(3 * time.Second)
	if _, ok := fired(moved); !ok {
		t.Fatal("a reset timer did not fire at its new deadline")
	}

	// A fire nobody received is dropped by Stop and Reset.
	unread := f.NewTimer(time.Second)
	f.Advance(time.Second)
	if unread.Reset(time.Second) {
		t.Fatal("Reset of a fired timer reported it was armed")
	}
	if _, ok := fired(unread); ok {
		t.Fatal("Reset left the earlier fire in C")
	}
}

// TestRealTimerAllocs: the Timer interface adds no allocation to a
// wall-clock timer, which the dispatcher arms once per query.
func TestRealTimerAllocs(t *testing.T) {
	std := testing.AllocsPerRun(100, func() { time.NewTimer(time.Hour).Stop() })
	ours := testing.AllocsPerRun(100, func() { Real.NewTimer(time.Hour).Stop() })
	if ours > std {
		t.Fatalf("Real.NewTimer+Stop allocates %.1f, time.NewTimer+Stop %.1f", ours, std)
	}
}
