// Package core implements IncShrink itself: the Transform protocol
// (Algorithm 1) with truncated view transformation and contribution
// budgets, the two Shrink protocols sDPTimer (Algorithm 2) and sDPANT
// (Algorithm 3) with joint DP noise and cache flushing, the materialized
// view lifecycle, view-based query answering, and the three comparison
// baselines of Section 7 (NM, EP, OTM).
package core

// BudgetTracker enforces the contribution budgets of KI-3 / Section 5.1
// ("Contribution over time"): every outsourced record is assigned a total
// budget b; each time it is used as input to Transform it is charged the
// truncation bound omega, regardless of whether it actually generated view
// entries. A record with no remaining budget is retired and never enters
// Transform again, which makes the lifetime transformation q-stable with
// q = b and hence the total privacy loss per logical update b * (eps/b) =
// eps (Theorems 3 and 7).
type BudgetTracker struct {
	total     int
	remaining map[int64]int
}

// NewBudgetTracker creates a tracker assigning budget b to each registered
// record. b <= 0 means unlimited (used for public relations, which carry no
// privacy budget of their own).
func NewBudgetTracker(b int) *BudgetTracker {
	return &BudgetTracker{total: b, remaining: make(map[int64]int)}
}

// Unlimited reports whether this tracker enforces no budget.
func (bt *BudgetTracker) Unlimited() bool { return bt.total <= 0 }

// Register assigns the full budget to a new record. Registering an existing
// record is a no-op (budgets are never refreshed).
func (bt *BudgetTracker) Register(id int64) {
	if bt.Unlimited() {
		return
	}
	if _, ok := bt.remaining[id]; !ok {
		bt.remaining[id] = bt.total
	}
}

// Remaining returns the budget left for a record (the full budget if
// unlimited or unknown).
func (bt *BudgetTracker) Remaining(id int64) int {
	if bt.Unlimited() {
		return 1 << 30
	}
	if r, ok := bt.remaining[id]; ok {
		return r
	}
	return bt.total
}

// Consume charges amount from a record's budget and reports whether the
// record may still be used afterwards. Exhausted records are dropped from
// the map (retired).
func (bt *BudgetTracker) Consume(id int64, amount int) (alive bool) {
	if bt.Unlimited() {
		return true
	}
	r, ok := bt.remaining[id]
	if !ok {
		return false
	}
	r -= amount
	if r <= 0 {
		delete(bt.remaining, id)
		return false
	}
	bt.remaining[id] = r
	return true
}

// retire drops a record's remaining budget: the record left the join window
// and never enters Transform again.
func (bt *BudgetTracker) retire(id int64) { delete(bt.remaining, id) }

// Active returns the number of records currently holding budget.
func (bt *BudgetTracker) Active() int { return len(bt.remaining) }
