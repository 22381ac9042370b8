package relation

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"github.com/cobra-prov/cobra/internal/polynomial"
)

// oracleValues are the edge values whose encodings are pinned by
// valueOracleGolden: integer and float extremes, signed zero, NaN and the
// infinities, the empty string and one holding a NUL, both bools, and the
// zero, constant and symbolic polynomials.
var oracleValues = []struct {
	name string
	v    Value
}{
	{"null", Null()},
	{"int0", Int(0)},
	{"intMin", Int(math.MinInt64)},
	{"intMax", Int(math.MaxInt64)},
	{"float1.5", Float(1.5)},
	{"floatNegZero", Float(math.Copysign(0, -1))},
	{"floatNaN", Float(math.NaN())},
	{"floatPosInf", Float(math.Inf(1))},
	{"floatNegInf", Float(math.Inf(-1))},
	{"strEmpty", Str("")},
	{"strNUL", Str("a\x00b")},
	{"boolFalse", Bool(false)},
	{"boolTrue", Bool(true)},
	{"polyZero", Poly(polynomial.Polynomial{})},
	{"polyConst", Poly(polynomial.Const(2.5))},
	{"polyOne", Poly(polynomial.One())},
	{"polySym", Poly(polynomial.VarPoly(polynomial.Var(0)))},
}

// renderValueOracle renders, per value, its Key bytes (hex, or "panic"),
// its AppendString bytes (quoted), its AsFloat result (bits and ok), its
// AsPoly result (monomial count, constant bits and ok), then
// one character per value of the table for Compare ('<', '=', '>', or '!'
// for an error) and for Equal ('1' or '0').
func renderValueOracle() string {
	var b strings.Builder
	for _, x := range oracleValues {
		key := func() (s string) {
			defer func() {
				if recover() != nil {
					s = "panic"
				}
			}()
			return fmt.Sprintf("%x", x.v.Key([]byte{0xff}))
		}()
		f, ok := x.v.AsFloat()
		p, pok := x.v.AsPoly()
		pc, _ := p.IsConstant()
		var cmp, eq []byte
		for _, y := range oracleValues {
			c, err := x.v.Compare(y.v)
			switch {
			case err != nil:
				cmp = append(cmp, '!')
			case c < 0:
				cmp = append(cmp, '<')
			case c > 0:
				cmp = append(cmp, '>')
			default:
				cmp = append(cmp, '=')
			}
			if x.v.Equal(y.v) {
				eq = append(eq, '1')
			} else {
				eq = append(eq, '0')
			}
		}
		fmt.Fprintf(&b, "%s key=%s str=%s float=%016x/%t poly=%d/%016x/%t cmp=%s eq=%s\n",
			x.name, key, strconv.Quote(string(x.v.AppendString([]byte("~")))), math.Float64bits(f), ok,
			p.NumMonomials(), math.Float64bits(pc), pok, cmp, eq)
	}
	return b.String()
}

// valueOracleGolden was rendered by renderValueOracle against the
// 72-byte Value layout (separate I, F, B, S and P fields) that the
// 40-byte layout replaced; the encodings must not change with it.
const valueOracleGolden = `null key=ff00 str="~NULL" float=0000000000000000/false poly=0/0000000000000000/false cmp==<<<<<<<<<<<<<<<< eq=10000000000000000
int0 key=ff0130 str="~0" float=0000000000000000/true poly=0/0000000000000000/true cmp=>=><<==<>!!!!=<<! eq=01000110000001000
intMin key=ff012d39323233333732303336383534373735383038 str="~-9223372036854775808" float=c3e0000000000000/true poly=1/c3e0000000000000/true cmp=><=<<<=<>!!!!<<<! eq=00100010000000000
intMax key=ff0139323233333732303336383534373735383037 str="~9223372036854775807" float=43e0000000000000/true poly=1/43e0000000000000/true cmp=>>>=>>=<>!!!!>>>! eq=00010010000000000
float1.5 key=ff02312e35 str="~1.5" float=3ff8000000000000/true poly=1/3ff8000000000000/true cmp=>>><=>=<>!!!!><>! eq=00001010000000000
floatNegZero key=ff022d30 str="~-0" float=8000000000000000/true poly=0/0000000000000000/true cmp=>=><<==<>!!!!=<<! eq=01000110000001000
floatNaN key=ff024e614e str="~NaN" float=7ff8000000000001/true poly=1/7ff8000000000001/true cmp=>========!!!!===! eq=01111111100000000
floatPosInf key=ff022b496e66 str="~+Inf" float=7ff0000000000000/true poly=1/7ff0000000000000/true cmp=>>>>>>==>!!!!>>>! eq=00000011000000000
floatNegInf key=ff022d496e66 str="~-Inf" float=fff0000000000000/true poly=1/fff0000000000000/true cmp=><<<<<=<=!!!!<<<! eq=00000010100000000
strEmpty key=ff0300 str="~" float=0000000000000000/false poly=0/0000000000000000/false cmp=>!!!!!!!!=<!!!!!! eq=00000000010000000
strNUL key=ff0361006200 str="~a\x00b" float=0000000000000000/false poly=0/0000000000000000/false cmp=>!!!!!!!!>=!!!!!! eq=00000000001000000
boolFalse key=ff0400 str="~false" float=0000000000000000/false poly=0/0000000000000000/false cmp=>!!!!!!!!!!=<!!!! eq=00000000000100000
boolTrue key=ff0401 str="~true" float=0000000000000000/false poly=0/0000000000000000/false cmp=>!!!!!!!!!!>=!!!! eq=00000000000010000
polyZero key=panic str="~<poly:0 monomials>" float=0000000000000000/true poly=0/0000000000000000/true cmp=>=><<==<>!!!!=<<! eq=01000100000001000
polyConst key=panic str="~<poly:1 monomials>" float=4004000000000000/true poly=1/4004000000000000/true cmp=>>><>>=<>!!!!>=>! eq=00000000000000100
polyOne key=panic str="~<poly:1 monomials>" float=3ff0000000000000/true poly=1/3ff0000000000000/true cmp=>>><<>=<>!!!!><=! eq=00000000000000010
polySym key=panic str="~<poly:1 monomials>" float=0000000000000000/false poly=1/0000000000000000/true cmp=>!!!!!!!!!!!!!!!! eq=00000000000000001
`

func TestValueLayoutSize(t *testing.T) {
	if got := reflect.TypeOf(Value{}).Size(); got != 40 {
		t.Fatalf("Value is %d bytes, want 40", got)
	}
}

func TestValueEncodingOracle(t *testing.T) {
	got := renderValueOracle()
	if got != valueOracleGolden {
		gl, wl := strings.Split(got, "\n"), strings.Split(valueOracleGolden, "\n")
		for i := range max(len(gl), len(wl)) {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
		}
	}
}
