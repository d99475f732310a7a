package frontend

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/pps"
)

func TestTenantTableTakeAndRefill(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tt := newTenantTable(1, 2, clk) // 1 token/s, burst 2

	if !tt.take("a") || !tt.take("a") {
		t.Fatal("burst of 2 must admit two takes")
	}
	if tt.take("a") {
		t.Fatal("third take admitted with an empty bucket")
	}
	clk.Advance(time.Second)
	if !tt.take("a") {
		t.Fatal("one second at rate 1 must refill one token")
	}
	if tt.take("a") {
		t.Fatal("refill over-credited")
	}
	// Refill caps at burst, not unbounded accrual.
	clk.Advance(time.Hour)
	if !tt.take("a") || !tt.take("a") {
		t.Fatal("bucket should be back at burst capacity")
	}
	if tt.take("a") {
		t.Fatal("refill exceeded burst")
	}
	// Buckets are per tenant.
	if !tt.take("b") {
		t.Fatal("tenant b's bucket drained by tenant a")
	}
}

func TestTenantTableDisabled(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tt := newTenantTable(0, 0, clk)
	for i := 0; i < 100; i++ {
		if !tt.take("a") {
			t.Fatal("rate <= 0 must disable quota enforcement")
		}
	}
	if len(tt.m) != 0 {
		t.Fatalf("a disabled table grew %d buckets", len(tt.m))
	}
	var nilTable *tenantTable
	if !nilTable.take("a") {
		t.Fatal("nil table must admit")
	}
}

func TestTenantAdmitClasses(t *testing.T) {
	fe := New(Config{TenantRate: 0.0001, TenantBurst: 1, Clock: clock.NewFake(time.Unix(1000, 0))})
	defer fe.Close()

	// High bypasses the quota even under contention with a dry bucket.
	for i := 0; i < 3; i++ {
		if !fe.tenantAdmit("hot", PriorityHigh, true) {
			t.Fatal("PriorityHigh must never be quota-shed")
		}
	}
	// Normal is work-conserving: unmetered while the pool has slack.
	for i := 0; i < 3; i++ {
		if !fe.tenantAdmit("hot", PriorityNormal, false) {
			t.Fatal("uncontended Normal must admit regardless of bucket")
		}
	}
	// Under contention Normal spends tokens: burst 1 admits once.
	if !fe.tenantAdmit("hot", PriorityNormal, true) {
		t.Fatal("first contended Normal should spend the burst token")
	}
	if fe.tenantAdmit("hot", PriorityNormal, true) {
		t.Fatal("second contended Normal must be quota-shed")
	}
	// Bulk is metered even on an idle pool.
	if fe.tenantAdmit("hot", PriorityBulk, false) {
		t.Fatal("Bulk must be metered even uncontended")
	}
	if !fe.tenantAdmit("cold", PriorityBulk, false) {
		t.Fatal("a fresh tenant's Bulk should spend its own burst")
	}
}

func TestTenantTableEvictsLeastRecentlyActive(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tt := newTenantTable(1, 8, clk)
	for i := 0; i < maxTenantStates; i++ {
		tt.take(fmt.Sprintf("t%04d", i))
		clk.Advance(time.Millisecond)
	}
	// Touch t0000 so t0001 becomes the eviction victim.
	tt.take("t0000")
	clk.Advance(time.Millisecond)
	tt.take("fresh")
	tt.mu.Lock()
	_, kept := tt.m["t0000"]
	_, evicted := tt.m["t0001"]
	n := len(tt.m)
	tt.mu.Unlock()
	if n != maxTenantStates {
		t.Errorf("table grew to %d states, cap is %d", n, maxTenantStates)
	}
	if !kept {
		t.Error("recently-active tenant evicted")
	}
	if evicted {
		t.Error("least-recently-active tenant survived")
	}
}

// TestQueryBulkTenantShed: end-to-end through Query — a bulk tenant past
// its burst is rejected with ErrTenantShed before taking a slot.
func TestQueryBulkTenantShed(t *testing.T) {
	enc := slimEncoder()
	v, nodes := testView(t, enc, 2, 1)
	loadAll(t, nodes, enc, []string{"aa"})
	fe := New(Config{TenantRate: 0.0001, TenantBurst: 2})
	defer fe.Close()
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	spec := QuerySpec{Enc: q, Tenant: "batch", Priority: PriorityBulk}

	for i := 0; i < 2; i++ {
		if _, err := fe.Query(context.Background(), spec); err != nil {
			t.Fatalf("within-burst bulk query %d: %v", i, err)
		}
	}
	if _, err := fe.Query(context.Background(), spec); !errors.Is(err, ErrTenantShed) {
		t.Fatalf("over-burst bulk query: err = %v, want ErrTenantShed", err)
	}
	// A well-behaved tenant is unaffected.
	if _, err := fe.Query(context.Background(), QuerySpec{Enc: q, Tenant: "ok", Priority: PriorityBulk}); err != nil {
		t.Fatalf("other tenant sheds with the hot one: %v", err)
	}
}
