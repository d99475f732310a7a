// Package clock is the one source of time for the frontend and the
// control plane: their clock reads and timers go through a Clock, so a
// test can step them all on one Fake. Real alone reads the wall clock.
package clock

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// Clock reads the time and arms timers.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a time.Timer on a Clock. C delivers the fire time once;
// after Stop or Reset returns, C holds no value from before the call.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// After waits for d on c, as time.After does on the wall clock.
func After(c Clock, d time.Duration) <-chan time.Time { return c.NewTimer(d).C() }

// Or returns c, or Real for a nil c: what a nil Clock in a config means.
func Or(c Clock) Clock {
	if c == nil {
		return Real
	}
	return c
}

// Real is the wall clock.
var Real Clock = wall{}

type wall struct{}

func (wall) Now() time.Time                 { return time.Now() }                  //lint:allow wallclock — the wall clock itself
func (wall) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} } //lint:allow wallclock — the wall clock itself

// wallTimer is one pointer, so a Timer holding it allocates nothing more.
type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

// Fake is a manual clock, safe for concurrent use; only Advance moves it.
type Fake struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer // armed, by deadline; equal deadlines in arming order
}

// NewFake returns a Fake that reads t until it is advanced.
func NewFake(t time.Time) *Fake { return &Fake{now: t} }

// Now returns the Fake's time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// NewTimer arms a timer due at now+d; d <= 0 fires it at once.
func (f *Fake) NewTimer(d time.Duration) Timer {
	t := &fakeTimer{f: f, c: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// Advance moves the time forward by d and fires, in deadline order,
// every timer due by then, each with its deadline as the fire time.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.now = f.now.Add(d)
	for len(f.timers) > 0 && !f.timers[0].when.After(f.now) {
		t := f.timers[0]
		f.timers = f.timers[1:]
		t.c <- t.when
	}
}

type fakeTimer struct {
	f    *Fake
	c    chan time.Time // holds at most the one fire of the current arming
	when time.Time
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }

func (t *fakeTimer) Stop() bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	return t.stopLocked()
}

func (t *fakeTimer) Reset(d time.Duration) bool {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	armed := t.stopLocked()
	t.when = t.f.now.Add(d)
	if d <= 0 {
		t.c <- t.when
		return armed
	}
	ts := t.f.timers
	t.f.timers = slices.Insert(ts, sort.Search(len(ts), func(i int) bool { return ts[i].when.After(t.when) }), t)
	return armed
}

// stopLocked disarms t and drops an unread fire; true if t was armed.
func (t *fakeTimer) stopLocked() bool {
	select {
	case <-t.c:
	default:
	}
	i := slices.Index(t.f.timers, t)
	if i < 0 {
		return false
	}
	t.f.timers = slices.Delete(t.f.timers, i, i+1)
	return true
}
