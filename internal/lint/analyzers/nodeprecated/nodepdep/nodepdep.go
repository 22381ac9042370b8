// Package nodepdep holds module-declared surface marked Deprecated for
// the nodeprecated analyzer's fixtures: a fixture that imports it checks
// that a deprecation declared in another package is seen through export
// data (and a re-parse of the declaring file). Nothing else imports it.
package nodepdep

// OldLimit is the v1 limit.
//
// Deprecated: use Limit.
const OldLimit = Limit

// Limit is the current limit.
const Limit = 64
