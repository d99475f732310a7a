// Per-tenant admission: token-bucket quotas over the shared MaxInFlight
// pool (docs/ECONOMICS.md).
//
// The quota is deliberately work-conserving: for the interactive
// classes it is enforced only while the admission pool is contended
// (every slot taken), so an over-quota tenant on an idle frontend runs
// at full speed — the bucket's job is to decide who yields when slots
// are scarce, not to cap throughput for its own sake. PriorityBulk is
// the exception: bulk work metered always, so a batch scan cannot
// monopolise the pool in the instant before contention registers.
// PriorityHigh bypasses the quota entirely (it is "never shed" by
// contract).
package frontend

import (
	"errors"
	"sync"
	"time"

	"roar/internal/clock"
)

// ErrTenantShed is returned to queries rejected by their tenant's
// admission quota while the frontend's in-flight pool is contended.
var ErrTenantShed = errors.New("frontend: tenant over admission quota, query rejected")

// maxTenantStates bounds the table; the least-recently-active tenant
// is evicted past it (its bucket restarts full if it returns — a brief
// over-admission for a tenant idle long enough to be evicted).
const maxTenantStates = 1024

// tenantState is one tenant's bucket, guarded by the table mutex
// (accesses are short and already on the admission path's lock-order
// leaf).
type tenantState struct {
	bucket
	active time.Time // last touch, for idle eviction
}

// tenantTable holds the frontend's quota buckets. rate <= 0 disables
// quota enforcement, and the table then stays empty.
type tenantTable struct {
	mu    sync.Mutex
	m     map[string]*tenantState
	rate  float64 // tokens per second
	burst float64 // bucket capacity and initial balance
	clk   clock.Clock
}

func newTenantTable(rate, burst float64, clk clock.Clock) *tenantTable {
	if burst <= 0 {
		burst = rate
		if burst < 8 {
			burst = 8
		}
	}
	return &tenantTable{m: make(map[string]*tenantState), rate: rate, burst: burst, clk: clk}
}

// stateLocked finds or creates a tenant's state, evicting the
// least-recently-active tenant when the table is full.
func (t *tenantTable) stateLocked(tenant string, now time.Time) *tenantState {
	st, ok := t.m[tenant]
	if ok {
		st.active = now
		return st
	}
	if len(t.m) >= maxTenantStates {
		var oldest string
		var oldestAt time.Time
		first := true
		for name, s := range t.m {
			if first || s.active.Before(oldestAt) {
				oldest, oldestAt, first = name, s.active, false
			}
		}
		delete(t.m, oldest)
	}
	st = &tenantState{bucket: bucket{tokens: t.burst, last: now}, active: now}
	t.m[tenant] = st
	return st
}

// take attempts to spend one admission token. With rate <= 0 quotas are
// disabled and every take succeeds.
func (t *tenantTable) take(tenant string) bool {
	if t == nil || t.rate <= 0 {
		return true
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stateLocked(tenant, now)
	st.refill(now, t.rate, t.burst)
	if st.tokens < 1 {
		return false
	}
	st.tokens--
	return true
}

// tenantAdmit applies the quota for one query given its priority class
// and the admission pool's contention state. Returns false when the
// query must be rejected with ErrTenantShed.
func (f *Frontend) tenantAdmit(tenant string, prio Priority, contended bool) bool {
	switch {
	case prio >= PriorityHigh:
		return true // never shed, never metered
	case prio <= PriorityBulk:
		return f.tenants.take(tenant) // metered even on an idle pool
	default: // Normal and Low: work-conserving
		if !contended {
			return true
		}
		return f.tenants.take(tenant)
	}
}
