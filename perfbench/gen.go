package main

import (
	"math/rand"

	"incshrink"
	"incshrink/internal/runner"
)

// stream is one view's pre-generated input: the serve/loadgen.go shape with
// multiplicity 1. Every step uploads rowsPerStep left rows with fresh keys;
// each gets one joining right row with probability 0.7, uploaded in the same
// step and stamped lag ~ U[0, within] later, so it satisfies the view's
// temporal predicate. Each right row therefore joins exactly one left row
// and the true join size after step t is truth[t], the running count of
// right rows.
type stream struct {
	steps []incshrink.StepRows
	truth []int
}

// genStream generates n steps for one view. The rows depend only on
// (seed, key), so every repeat of a variant, and every run at one seed, sees
// identical input.
func genStream(seed int64, key string, n, rowsPerStep int, within int64) stream {
	rng := rand.New(rand.NewSource(runner.DeriveSeed(seed, key+"/rows")))
	s := stream{steps: make([]incshrink.StepRows, n), truth: make([]int, n)}
	nextKey := int64(1)
	total := 0
	for i := 0; i < n; i++ {
		t := int64(i)
		var st incshrink.StepRows
		for j := 0; j < rowsPerStep; j++ {
			k := nextKey
			nextKey++
			st.Left = append(st.Left, incshrink.Row{k, t})
			if rng.Float64() < 0.7 {
				st.Right = append(st.Right, incshrink.Row{k, t + rng.Int63n(within+1)})
			}
		}
		total += len(st.Right)
		s.steps[i] = st
		s.truth[i] = total
	}
	return s
}
