package incshrink

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// batchStep is the deterministic synthetic upload the equivalence tests
// drive: three left rows at time t and one right row joining the first of
// them within the window (the corebench stream shape).
func batchStep(t int) StepRows {
	k := int64(t)
	return StepRows{
		Left:  []Row{{3 * k, k}, {3*k + 1, k}, {3*k + 2, k}},
		Right: []Row{{3 * k, k + 2}},
	}
}

// batchOpts returns a deployment for the given protocol.
func batchOpts(p Protocol) Options {
	return Options{Epsilon: 1.5, Protocol: p, T: 10, Seed: 1}
}

// TestAdvanceBatchEquivalence is the batch-vs-sequential acceptance check:
// AdvanceBatch(s1..sk) must leave the database in a state byte-identical to
// k sequential Advance calls — counts, stats, and the full durability
// snapshot (cache and view arenas, budgets, RNG draw positions, cost meter)
// — for batch sizes 1, 7 and 120 under both DP engines. The public-right
// deployment uploads every third step, so batch boundaries fall between
// uploads while public arrivals are pending.
func TestAdvanceBatchEquivalence(t *testing.T) {
	const horizon = 120
	deployments := []struct {
		name        string
		def         ViewDef
		uploadEvery int
	}{
		{"", ViewDef{Within: 10}, 1},
		{"public-right", ViewDef{Within: 10, RightPublic: true}, 3},
	}
	for _, dep := range deployments {
		for _, proto := range []Protocol{SDPTimer, SDPANT} {
			for _, k := range []int{1, 7, 120} {
				name := fmt.Sprintf("%s/k=%d", proto, k)
				if dep.name != "" {
					name = dep.name + "/" + name
				}
				t.Run(name, func(t *testing.T) {
					opts := batchOpts(proto)
					opts.UploadEvery = dep.uploadEvery
					seq, err := Open(dep.def, opts)
					if err != nil {
						t.Fatal(err)
					}
					bat, err := Open(dep.def, opts)
					if err != nil {
						t.Fatal(err)
					}
					var steps []StepRows
					for s := 0; s < horizon; s++ {
						st := batchStep(s)
						if err := seq.Advance(st.Left, st.Right); err != nil {
							t.Fatal(err)
						}
						steps = append(steps, st)
						if len(steps) == k {
							if err := bat.AdvanceBatch(steps); err != nil {
								t.Fatal(err)
							}
							steps = steps[:0]
						}
					}
					if len(steps) > 0 {
						if err := bat.AdvanceBatch(steps); err != nil {
							t.Fatal(err)
						}
					}
					ns, _ := seq.Count()
					nb, _ := bat.Count()
					if ns != nb {
						t.Fatalf("count diverged: sequential %d, batched %d", ns, nb)
					}
					if seq.Stats() != bat.Stats() {
						t.Fatalf("stats diverged:\nsequential %+v\nbatched    %+v", seq.Stats(), bat.Stats())
					}
					var sb, bb bytes.Buffer
					if err := seq.Snapshot(&sb); err != nil {
						t.Fatal(err)
					}
					if err := bat.Snapshot(&bb); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(sb.Bytes(), bb.Bytes()) {
						t.Fatalf("snapshots diverged (%d vs %d bytes): a batched run must be byte-identical to a sequential one", sb.Len(), bb.Len())
					}
				})
			}
		}
	}
}

// TestAdvanceBatchAllOrNothing pins the validation contract: a batch with
// any invalid step mutates nothing — not even the steps before the bad one
// — and a corrected retry replays byte-identically to a clean run.
func TestAdvanceBatchAllOrNothing(t *testing.T) {
	opts := batchOpts(SDPTimer)
	opts.MaxLeft, opts.MaxRight = 4, 4
	clean, err := Open(ViewDef{Within: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}
	dirty, err := Open(ViewDef{Within: 10}, opts)
	if err != nil {
		t.Fatal(err)
	}

	good := []StepRows{
		{Left: []Row{{1, 0}}, Right: []Row{{1, 1}}},
		{Left: []Row{{2, 1}}, Right: []Row{{2, 2}}},
	}
	bad := []StepRows{
		good[0],
		{Left: []Row{{9, 1}, {10, 1}, {11, 1}, {12, 1}, {13, 1}}}, // exceeds MaxLeft=4
	}
	err = dirty.AdvanceBatch(bad)
	if !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("oversized batch step: got %v, want ErrInvalidArgument", err)
	}
	if dirty.Now() != 0 {
		t.Fatalf("rejected batch moved the clock to %d", dirty.Now())
	}
	if err := dirty.AdvanceBatch(nil); !errors.Is(err, ErrInvalidArgument) {
		t.Fatalf("empty batch: got %v, want ErrInvalidArgument", err)
	}

	// The corrected retry must continue exactly where a never-failed run is.
	if err := clean.AdvanceBatch(good); err != nil {
		t.Fatal(err)
	}
	if err := dirty.AdvanceBatch(good); err != nil {
		t.Fatal(err)
	}
	var cb, db bytes.Buffer
	if err := clean.Snapshot(&cb); err != nil {
		t.Fatal(err)
	}
	if err := dirty.Snapshot(&db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cb.Bytes(), db.Bytes()) {
		t.Fatal("rejected-then-retried batch diverged from a clean run: the rejection leaked state")
	}
}
