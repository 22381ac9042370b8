// Package relation provides the relational substrate: typed values
// (including symbolic polynomial-valued numerics), schemas with qualified
// column names, tuples carrying provenance annotations, and in-memory
// relations.
package relation

import (
	"fmt"
	"math"
	"strconv"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// Kind enumerates value types.
type Kind uint8

const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
	// KindPoly is a symbolic numeric value: a provenance polynomial. Cells
	// become KindPoly when instrumented with provenance variables (e.g. a
	// price 0.4 parameterized as 0.4·p1·m1).
	KindPoly
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindPoly:
		return "poly"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a dynamically typed cell value, 40 bytes on 64-bit targets.
// Only one payload is ever live, so the numeric kinds share one word: n
// holds an int64's bits (KindInt), math.Float64bits (KindFloat) or 0/1
// (KindBool). S is the KindString payload; p points to the polynomial of a
// KindPoly cell (nil for the zero polynomial). Read payloads through Int,
// Float, Bool and Poly; each returns its type's zero value for any other
// kind.
type Value struct {
	Kind Kind
	n    uint64
	S    string
	p    *polynomial.Polynomial
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Int wraps an int64.
func Int(i int64) Value { return Value{Kind: KindInt, n: uint64(i)} }

// Float wraps a float64.
func Float(f float64) Value { return Value{Kind: KindFloat, n: math.Float64bits(f)} }

// Str wraps a string.
func Str(s string) Value { return Value{Kind: KindString, S: s} }

// Bool wraps a bool.
func Bool(b bool) Value {
	if b {
		return Value{Kind: KindBool, n: 1}
	}
	return Value{Kind: KindBool}
}

// Poly wraps a symbolic numeric value. A polynomial with monomials costs
// one 24-byte header on the heap; code that builds many cells at once
// carves the headers from a slab and wraps them with PolyAt.
func Poly(p polynomial.Polynomial) Value {
	if p.Mons == nil {
		return Value{Kind: KindPoly}
	}
	return Value{Kind: KindPoly, p: &p}
}

// PolyAt wraps the polynomial *p without copying it; the caller must not
// modify *p afterwards. A nil p is the zero polynomial.
func PolyAt(p *polynomial.Polynomial) Value { return Value{Kind: KindPoly, p: p} }

// Int returns the payload of a KindInt value, 0 for any other kind.
func (v Value) Int() int64 {
	if v.Kind != KindInt {
		return 0
	}
	return int64(v.n)
}

// Float returns the payload of a KindFloat value, 0 for any other kind.
// AsFloat converts every concrete numeric kind.
func (v Value) Float() float64 {
	if v.Kind != KindFloat {
		return 0
	}
	return math.Float64frombits(v.n)
}

// Bool returns the payload of a KindBool value, false for any other kind.
func (v Value) Bool() bool { return v.Kind == KindBool && v.n != 0 }

// Poly returns the polynomial of a KindPoly value, the zero polynomial
// for any other kind. AsPoly lifts every numeric kind.
func (v Value) Poly() polynomial.Polynomial {
	if v.Kind != KindPoly || v.p == nil {
		return polynomial.Polynomial{}
	}
	return *v.p
}

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// IsNumeric reports whether the value participates in arithmetic.
func (v Value) IsNumeric() bool {
	return v.Kind == KindInt || v.Kind == KindFloat || v.Kind == KindPoly
}

// AsFloat converts a concrete numeric value to float64. Symbolic values
// convert only if constant.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int()), true
	case KindFloat:
		return v.Float(), true
	case KindPoly:
		if c, ok := v.Poly().IsConstant(); ok {
			return c, true
		}
	}
	return 0, false
}

// AsPoly lifts a numeric value into the polynomial semiring.
func (v Value) AsPoly() (polynomial.Polynomial, bool) {
	switch v.Kind {
	case KindInt:
		return polynomial.Const(float64(v.Int())), true
	case KindFloat:
		return polynomial.Const(v.Float()), true
	case KindPoly:
		return v.Poly(), true
	}
	return polynomial.Polynomial{}, false
}

// Compare orders two values: -1, 0, +1. NULL compares less than everything
// and equal to NULL (simplified three-valued logic: engine filters treat
// NULL comparisons as false upstream). Numeric kinds compare numerically;
// symbolic values compare only when constant.
func (v Value) Compare(o Value) (int, error) {
	if v.Kind == KindNull || o.Kind == KindNull {
		switch {
		case v.Kind == o.Kind:
			return 0, nil
		case v.Kind == KindNull:
			return -1, nil
		default:
			return 1, nil
		}
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, aok := v.AsFloat()
		b, bok := o.AsFloat()
		if !aok || !bok {
			return 0, fmt.Errorf("relation: cannot compare symbolic value %s with %s", v, o)
		}
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind != o.Kind {
		return 0, fmt.Errorf("relation: cannot compare %s with %s", v.Kind, o.Kind)
	}
	switch v.Kind {
	case KindString:
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		default:
			return 0, nil
		}
	case KindBool:
		return int(v.n) - int(o.n), nil
	default:
		return 0, fmt.Errorf("relation: cannot compare %s values", v.Kind)
	}
}

// Equal reports comparability and equality.
func (v Value) Equal(o Value) bool {
	if v.Kind == KindPoly || o.Kind == KindPoly {
		a, aok := v.AsPoly()
		b, bok := o.AsPoly()
		return aok && bok && polynomial.Equal(a, b)
	}
	c, err := v.Compare(o)
	return err == nil && c == 0
}

// Key appends a canonical byte encoding of the value for hashing (group-by
// and join keys). Symbolic values are not hashable and panic — the planner
// never hashes them.
func (v Value) Key(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, 0)
	case KindInt:
		buf = append(buf, 1)
		return strconv.AppendInt(buf, v.Int(), 10)
	case KindFloat:
		buf = append(buf, 2)
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	case KindString:
		buf = append(buf, 3)
		buf = append(buf, v.S...)
		return append(buf, 0)
	case KindBool:
		return append(buf, 4, byte(v.n))
	default:
		panic("relation: symbolic values cannot be used as hash keys")
	}
}

// String renders the value for display. Symbolic values render with
// placeholder variable ids (use Format with a namespace for names).
func (v Value) String() string {
	if v.Kind == KindString {
		return v.S
	}
	return string(v.AppendString(nil))
}

// AppendString appends String's rendering to buf — the allocation-free
// form used by hot key-rendering loops (capture group keys, lineage
// keys). The bytes appended are exactly String's output.
func (v Value) AppendString(buf []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(buf, "NULL"...)
	case KindInt:
		return strconv.AppendInt(buf, v.Int(), 10)
	case KindFloat:
		return strconv.AppendFloat(buf, v.Float(), 'g', -1, 64)
	case KindString:
		return append(buf, v.S...)
	case KindBool:
		return strconv.AppendBool(buf, v.Bool())
	case KindPoly:
		buf = append(buf, "<poly:"...)
		buf = strconv.AppendInt(buf, int64(v.Poly().NumMonomials()), 10)
		return append(buf, " monomials>"...)
	default:
		return append(buf, '?')
	}
}

// Format renders the value, printing symbolic values with variable names.
func (v Value) Format(names *polynomial.Names) string {
	if v.Kind == KindPoly {
		return v.Poly().String(names)
	}
	return v.String()
}
