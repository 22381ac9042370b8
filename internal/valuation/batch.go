package valuation

import (
	"github.com/cobra-prov/cobra/internal/parallel"
)

// EvalBatchN evaluates the program under many assignments — the
// multi-analyst workload the paper motivates compression with ("applying
// valuation may be performed by multiple analysts") — distributed over up
// to workers goroutines. Results are returned as one row per assignment;
// the out buffer is reused when it has capacity. The scenarios are chunked
// into contiguous ranges, one dense valuation arena per worker (rebuilt
// per assignment: most scenario assignments are sparse, so re-filling
// beats allocating), and each row is written to its own output slot, so
// the rows are bit-identical to evaluating each assignment alone, for
// every worker count. The assignments must not be mutated concurrently
// with the call.
func (p *Program) EvalBatchN(assignments []*Assignment, out [][]float64, workers int) [][]float64 {
	if cap(out) >= len(assignments) {
		out = out[:len(assignments)]
	} else {
		out = make([][]float64, len(assignments))
	}
	parallel.Chunks(workers, len(assignments), func(_, lo, hi int) {
		dense := make([]float64, p.numVars)
		for i := lo; i < hi; i++ {
			for j := range dense {
				dense[j] = 1
			}
			for _, item := range assignments[i].Items() {
				if int(item.Var) < len(dense) {
					dense[item.Var] = item.Value
				}
			}
			out[i] = p.Eval(dense, out[i])
		}
	})
	return out
}
