// Package nodepfix exercises the deprecated-reference checker against
// both same-package declarations and deprecated surface declared in
// another module package.
package nodepfix

import "github.com/cobra-prov/cobra/internal/lint/analyzers/nodeprecated/nodepdep"

// OldSum adds the slow way.
//
// Deprecated: use NewSum.
func OldSum(xs []int) int {
	n := 0
	for i := range xs {
		n += xs[i]
	}
	return n
}

// NewSum is the replacement.
func NewSum(xs []int) int {
	n := 0
	for i := range xs {
		n += xs[i]
	}
	return n
}

// oldTable is kept for readers of v1 output.
//
// Deprecated: use the schema registry.
var oldTable = map[string]int{}

// legacyShim wraps OldSum for published callers.
//
// Deprecated: call NewSum directly. A deprecated facade may delegate to
// other deprecated surface without being flagged.
func legacyShim(xs []int) int {
	_ = oldTable
	return OldSum(xs)
}

func caller(xs []int) int {
	return OldSum(xs) // want `use of deprecated OldSum: use NewSum\.`
}

func tableUser() int {
	return len(oldTable) // want `use of deprecated oldTable: use the schema registry\.`
}

func cleanCaller(xs []int) int {
	_ = legacyShim // want `use of deprecated legacyShim: call NewSum directly\.`
	return NewSum(xs)
}

// crossPackage references deprecated surface of another module package:
// deprecation must be visible through export data.
func crossPackage() int {
	return nodepdep.OldLimit // want `use of deprecated OldLimit: use Limit\.`
}

func justified(xs []int) int {
	//cobra:nodeprecated pinning v1 behavior until the migration window closes
	return OldSum(xs)
}
