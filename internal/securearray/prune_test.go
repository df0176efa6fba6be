package securearray

import (
	"math/rand"
	"testing"
)

func TestReadAndPruneSegments(t *testing.T) {
	// 30 slots, 12 real. Fetch 5, spill 4, keep 10 => 11 recycled.
	rng := rand.New(rand.NewSource(1)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	c.Append(batch(rng, 30, 12))
	lost := c.ReadAndPruneInto(v, 5, 4, 10)
	if v.Len() != 9 {
		t.Fatalf("fetched %d slots, want 5+4", v.Len())
	}
	// Sorted real-first: the 9 fetched slots are all real.
	if v.Real() != 9 {
		t.Errorf("fetched %d real, want 9", v.Real())
	}
	if c.Len() != 10 {
		t.Errorf("cache len %d, want keep=10", c.Len())
	}
	// 3 real remain in the kept segment; none recycled.
	if c.Real() != 3 {
		t.Errorf("cache real %d, want 3", c.Real())
	}
	if lost != 0 {
		t.Errorf("lost %d, want 0", lost)
	}
}

func TestReadAndPruneLosesTailReal(t *testing.T) {
	// 20 slots, 15 real. Fetch 2, spill 3, keep 5 => 10 recycled, of which
	// 15-2-3-5 = 5 are real.
	rng := rand.New(rand.NewSource(2)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 20, 15))
	lost := c.ReadAndPruneInto(NewView(2), 2, 3, 5)
	if lost != 5 {
		t.Errorf("lost = %d, want 5", lost)
	}
	if c.Real() != 5 {
		t.Errorf("cache real %d, want 5", c.Real())
	}
}

func TestReadAndPruneClamps(t *testing.T) {
	rng := rand.New(rand.NewSource(3)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	c.Append(batch(rng, 10, 4))
	// Oversized spill clamps to remaining; negative values clamp to 0.
	lost := c.ReadAndPruneInto(v, 3, 100, -5)
	if v.Len() != 10 {
		t.Errorf("fetched %d, want everything", v.Len())
	}
	if lost != 0 || c.Len() != 0 {
		t.Errorf("lost=%d cacheLen=%d after full spill", lost, c.Len())
	}
	// Keep larger than remainder keeps all without a flush.
	c2 := newCache(128, nil)
	c2.Append(batch(rng, 10, 4))
	lost = c2.ReadAndPruneInto(NewView(2), 2, 1, 100)
	if lost != 0 || c2.Len() != 7 {
		t.Errorf("lost=%d cacheLen=%d, want 0 and 7", lost, c2.Len())
	}
	_, _, flushes := c2.Stats()
	if flushes != 0 {
		t.Errorf("oversized keep still counted %d flushes", flushes)
	}
}

func TestReadAndPruneConservesReal(t *testing.T) {
	rng := rand.New(rand.NewSource(4)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	for trial := 0; trial < 30; trial++ {
		n := 10 + rng.Intn(40)
		real := rng.Intn(n + 1)
		c := newCache(128, nil)
		v := NewView(2)
		b := batch(rng, n, real)
		c.Append(b)
		lost := c.ReadAndPruneInto(v, rng.Intn(n+2), rng.Intn(10), rng.Intn(20))
		got := v.Real() + c.Real() + lost
		if got != real {
			t.Fatalf("trial %d: fetched+kept+lost = %d, want %d", trial, got, real)
		}
	}
}

func TestDrainInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	v := NewView(2)
	b := batch(rng, 12, 5)
	c.Append(b)
	c.DrainInto(v)
	if v.Len() != 12 || c.Len() != 0 {
		t.Errorf("drain moved %d, cache %d", v.Len(), c.Len())
	}
	// Drain preserves order (no sort).
	out := v.Buffer()
	for i := 0; i < out.Len(); i++ {
		if !out.Row(i).Equal(b.Row(i)) || out.IsReal(i) != b.IsReal(i) {
			t.Fatalf("drain reordered slot %d", i)
		}
	}
}

func TestPrune(t *testing.T) {
	rng := rand.New(rand.NewSource(6)) //lint:allow rngdraw test-local stream, never snapshotted or resumed
	c := newCache(128, nil)
	c.Append(batch(rng, 20, 6))
	lost := c.Prune(10)
	if lost != 0 {
		t.Errorf("prune above real count lost %d", lost)
	}
	if c.Len() != 10 || c.Real() != 6 {
		t.Errorf("after prune: len=%d real=%d", c.Len(), c.Real())
	}
	// Prune below real count loses the difference.
	lost = c.Prune(4)
	if lost != 2 {
		t.Errorf("tight prune lost %d, want 2", lost)
	}
	// No-op cases: keeping more than present loses nothing.
	if c.Prune(100) != 0 {
		t.Error("oversized keep lost tuples")
	}
	c2 := newCache(128, nil)
	if c2.Prune(-1) != 0 {
		t.Error("negative keep on empty cache should lose nothing")
	}
}
