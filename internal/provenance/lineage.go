package provenance

import (
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/semiring"
	"github.com/cobra-prov/cobra/internal/sql"
)

// CaptureLineageN runs a query over tuple-annotated relations (see
// AnnotateTuplesN) and returns one polynomial per output row: the row's
// N[X] annotation — its how-provenance in the semiring model (joint tuples
// multiply, alternative derivations add). The key of each polynomial is
// the row's rendered values joined by "|".
//
// This complements CaptureN, which extracts value-level (aggregation)
// provenance; CaptureLineageN extracts tuple-level provenance and works for
// any query the engine supports, including non-aggregate SPJ queries. The
// query executes through sql.RunN and row keys render across up to workers
// goroutines; the set is assembled in row order and is bit-identical for
// every worker count.
func CaptureLineageN(query string, cat engine.Catalog, names *polynomial.Names, workers int) (*polynomial.Set, error) {
	out, err := sql.RunN(query, cat, workers)
	if err != nil {
		return nil, err
	}
	return rowsToSet(out.Rows, names, -1, lineageRow, workers)
}

// Derivable evaluates a lineage polynomial in the Boolean semiring: given
// which source tuples are present, is the output row derivable? This is the
// classic "possibility under deletion" specialization of N[X].
func Derivable(lineage polynomial.Polynomial, present func(polynomial.Var) bool) bool {
	return semiring.Eval[bool](semiring.Boolean{}, lineage, present, semiring.CoefBool)
}

// MinimalCost evaluates a lineage polynomial in the tropical semiring:
// the cheapest derivation of the output row given per-tuple costs.
func MinimalCost(lineage polynomial.Polynomial, cost func(polynomial.Var) float64) float64 {
	return semiring.Eval[float64](semiring.Tropical{}, lineage, cost, semiring.CoefTropical)
}
