// Package tpch is a deterministic, scaled-down TPC-H data generator and
// query set — the business-analytics workload of the demo's second phase
// ("we will demonstrate COBRA in the context of TPC Benchmark H"). It
// produces the eight TPC-H tables with spec-shaped value distributions at a
// configurable scale factor, instrumentation policies that parameterize
// lineitem prices by ship month or by supplier nation, and the abstraction
// trees (month→quarter→year; nation→region) used to compress the resulting
// provenance.
//
// Two helper columns are added to lineitem (l_shipmonth, l_suppnation) so
// cell-level instrumentation can derive variables without denormalizing
// joins at instrumentation time; queries never depend on them.
package tpch

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/cobra-prov/cobra/internal/abstraction"
	"github.com/cobra-prov/cobra/internal/engine"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/provenance"
	"github.com/cobra-prov/cobra/internal/relation"
)

// Config scales the generator.
type Config struct {
	// SF is the TPC-H scale factor; 1.0 is the full benchmark size. The
	// default 0.01 generates ~60k lineitems, laptop-friendly.
	SF float64
	// Seed drives the deterministic pseudo-random streams.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.SF <= 0 {
		c.SF = 0.01
	}
	if c.Seed == 0 {
		c.Seed = 19920101
	}
	return c
}

var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations maps each TPC-H nation to its region index (per the spec).
var nations = []struct {
	name   string
	region int
}{
	{"ALGERIA", 0}, {"ARGENTINA", 1}, {"BRAZIL", 1}, {"CANADA", 1},
	{"EGYPT", 4}, {"ETHIOPIA", 0}, {"FRANCE", 3}, {"GERMANY", 3},
	{"INDIA", 2}, {"INDONESIA", 2}, {"IRAN", 4}, {"IRAQ", 4},
	{"JAPAN", 2}, {"JORDAN", 4}, {"KENYA", 0}, {"MOROCCO", 0},
	{"MOZAMBIQUE", 0}, {"PERU", 1}, {"CHINA", 2}, {"ROMANIA", 3},
	{"SAUDI ARABIA", 4}, {"VIETNAM", 2}, {"RUSSIA", 3}, {"UNITED KINGDOM", 3},
	{"UNITED STATES", 1},
}

var segments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}

var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}

var orderPriorities = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}

var typeSyllables = [][]string{
	{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"},
	{"ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"},
	{"TIN", "NICKEL", "BRASS", "STEEL", "COPPER"},
}

var startDate = time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)

const (
	// orderDateRange is the span of o_orderdate (through 1998-08-02).
	orderDateRange = 2405
	dateFormat     = "2006-01-02"
)

func fmtDate(daysSinceStart int) string {
	return startDate.AddDate(0, 0, daysSinceStart).Format(dateFormat)
}

func monthOf(daysSinceStart int) string {
	return startDate.AddDate(0, 0, daysSinceStart).Format("2006-01")
}

// Generate builds the catalog at the configured scale.
func Generate(cfg Config) engine.Catalog {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))

	nSupp := scaleCount(10_000, cfg.SF, 10)
	nCust := scaleCount(150_000, cfg.SF, 30)
	nPart := scaleCount(200_000, cfg.SF, 40)
	nOrders := scaleCount(1_500_000, cfg.SF, 150)

	cat := engine.Catalog{}

	region := relation.NewRelation("region", relation.NewSchema(
		relation.Column{Name: "r_regionkey", Kind: relation.KindInt},
		relation.Column{Name: "r_name", Kind: relation.KindString},
	))
	for i, name := range regions {
		region.Append(relation.Int(int64(i)), relation.Str(name))
	}
	cat["region"] = region

	nation := relation.NewRelation("nation", relation.NewSchema(
		relation.Column{Name: "n_nationkey", Kind: relation.KindInt},
		relation.Column{Name: "n_name", Kind: relation.KindString},
		relation.Column{Name: "n_regionkey", Kind: relation.KindInt},
	))
	for i, n := range nations {
		nation.Append(relation.Int(int64(i)), relation.Str(n.name), relation.Int(int64(n.region)))
	}
	cat["nation"] = nation

	supplier := relation.NewRelation("supplier", relation.NewSchema(
		relation.Column{Name: "s_suppkey", Kind: relation.KindInt},
		relation.Column{Name: "s_name", Kind: relation.KindString},
		relation.Column{Name: "s_nationkey", Kind: relation.KindInt},
		relation.Column{Name: "s_acctbal", Kind: relation.KindFloat},
	))
	suppNation := make([]int, nSupp+1)
	for i := 1; i <= nSupp; i++ {
		nk := r.Intn(len(nations))
		suppNation[i] = nk
		supplier.Append(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("Supplier#%09d", i)),
			relation.Int(int64(nk)),
			relation.Float(round2(-999.99+r.Float64()*10999.98)),
		)
	}
	cat["supplier"] = supplier

	customer := relation.NewRelation("customer", relation.NewSchema(
		relation.Column{Name: "c_custkey", Kind: relation.KindInt},
		relation.Column{Name: "c_name", Kind: relation.KindString},
		relation.Column{Name: "c_nationkey", Kind: relation.KindInt},
		relation.Column{Name: "c_mktsegment", Kind: relation.KindString},
		relation.Column{Name: "c_acctbal", Kind: relation.KindFloat},
	))
	for i := 1; i <= nCust; i++ {
		customer.Append(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("Customer#%09d", i)),
			relation.Int(int64(r.Intn(len(nations)))),
			relation.Str(segments[r.Intn(len(segments))]),
			relation.Float(round2(-999.99+r.Float64()*10999.98)),
		)
	}
	cat["customer"] = customer

	part := relation.NewRelation("part", relation.NewSchema(
		relation.Column{Name: "p_partkey", Kind: relation.KindInt},
		relation.Column{Name: "p_name", Kind: relation.KindString},
		relation.Column{Name: "p_brand", Kind: relation.KindString},
		relation.Column{Name: "p_type", Kind: relation.KindString},
		relation.Column{Name: "p_retailprice", Kind: relation.KindFloat},
	))
	partPrice := make([]float64, nPart+1)
	for i := 1; i <= nPart; i++ {
		price := round2(900 + float64(i%1000)/10 + 100*float64(i%10))
		partPrice[i] = price
		part.Append(
			relation.Int(int64(i)),
			relation.Str(fmt.Sprintf("part %d", i)),
			relation.Str(fmt.Sprintf("Brand#%d%d", 1+r.Intn(5), 1+r.Intn(5))),
			relation.Str(typeSyllables[0][r.Intn(6)]+" "+typeSyllables[1][r.Intn(5)]+" "+typeSyllables[2][r.Intn(5)]),
			relation.Float(price),
		)
	}
	cat["part"] = part

	partsupp := relation.NewRelation("partsupp", relation.NewSchema(
		relation.Column{Name: "ps_partkey", Kind: relation.KindInt},
		relation.Column{Name: "ps_suppkey", Kind: relation.KindInt},
		relation.Column{Name: "ps_supplycost", Kind: relation.KindFloat},
		relation.Column{Name: "ps_availqty", Kind: relation.KindInt},
	))
	for i := 1; i <= nPart; i++ {
		for j := 0; j < 4; j++ {
			sk := 1 + (i+j*(nSupp/4+1))%nSupp
			partsupp.Append(
				relation.Int(int64(i)),
				relation.Int(int64(sk)),
				relation.Float(round2(1+r.Float64()*999)),
				relation.Int(int64(1+r.Intn(9999))),
			)
		}
	}
	cat["partsupp"] = partsupp

	orders := relation.NewRelation("orders", relation.NewSchema(
		relation.Column{Name: "o_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "o_custkey", Kind: relation.KindInt},
		relation.Column{Name: "o_orderstatus", Kind: relation.KindString},
		relation.Column{Name: "o_totalprice", Kind: relation.KindFloat},
		relation.Column{Name: "o_orderdate", Kind: relation.KindString},
		relation.Column{Name: "o_orderpriority", Kind: relation.KindString},
		relation.Column{Name: "o_shippriority", Kind: relation.KindInt},
	))
	lineitem := relation.NewRelation("lineitem", relation.NewSchema(
		relation.Column{Name: "l_orderkey", Kind: relation.KindInt},
		relation.Column{Name: "l_partkey", Kind: relation.KindInt},
		relation.Column{Name: "l_suppkey", Kind: relation.KindInt},
		relation.Column{Name: "l_linenumber", Kind: relation.KindInt},
		relation.Column{Name: "l_quantity", Kind: relation.KindFloat},
		relation.Column{Name: "l_extendedprice", Kind: relation.KindFloat},
		relation.Column{Name: "l_discount", Kind: relation.KindFloat},
		relation.Column{Name: "l_tax", Kind: relation.KindFloat},
		relation.Column{Name: "l_returnflag", Kind: relation.KindString},
		relation.Column{Name: "l_linestatus", Kind: relation.KindString},
		relation.Column{Name: "l_shipdate", Kind: relation.KindString},
		relation.Column{Name: "l_shipmode", Kind: relation.KindString},
		relation.Column{Name: "l_shipmonth", Kind: relation.KindString},
		relation.Column{Name: "l_suppnation", Kind: relation.KindString},
	))
	cutoff := time.Date(1995, 6, 17, 0, 0, 0, 0, time.UTC)
	for ok := 1; ok <= nOrders; ok++ {
		odate := r.Intn(orderDateRange)
		nLines := 1 + r.Intn(7)
		var total float64
		for ln := 1; ln <= nLines; ln++ {
			pk := 1 + r.Intn(nPart)
			sk := 1 + r.Intn(nSupp)
			qty := float64(1 + r.Intn(50))
			eprice := round2(qty * partPrice[pk] / 10)
			disc := float64(r.Intn(11)) / 100
			tax := float64(r.Intn(9)) / 100
			sdate := odate + 1 + r.Intn(121)
			ship := startDate.AddDate(0, 0, sdate)
			status := "F"
			if ship.After(cutoff) {
				status = "O"
			}
			rflag := "N"
			if !ship.After(cutoff) {
				if r.Intn(2) == 0 {
					rflag = "R"
				} else {
					rflag = "A"
				}
			}
			total += eprice * (1 - disc) * (1 + tax)
			lineitem.Append(
				relation.Int(int64(ok)),
				relation.Int(int64(pk)),
				relation.Int(int64(sk)),
				relation.Int(int64(ln)),
				relation.Float(qty),
				relation.Float(eprice),
				relation.Float(disc),
				relation.Float(tax),
				relation.Str(rflag),
				relation.Str(status),
				relation.Str(fmtDate(sdate)),
				relation.Str(shipModes[r.Intn(len(shipModes))]),
				relation.Str(monthOf(sdate)),
				relation.Str(nations[suppNation[sk]].name),
			)
		}
		statuses := []string{"F", "O", "P"}
		orders.Append(
			relation.Int(int64(ok)),
			relation.Int(int64(1+r.Intn(nCust))),
			relation.Str(statuses[r.Intn(3)]),
			relation.Float(round2(total)),
			relation.Str(fmtDate(odate)),
			relation.Str(orderPriorities[r.Intn(len(orderPriorities))]),
			relation.Int(int64(r.Intn(2))),
		)
	}
	cat["orders"] = orders
	cat["lineitem"] = lineitem

	return cat
}

func scaleCount(base int, sf float64, min int) int {
	n := int(float64(base) * sf)
	if n < min {
		n = min
	}
	return n
}

func round2(f float64) float64 { return float64(int64(f*100+0.5)) / 100 }

// InstrumentByShipMonth parameterizes l_extendedprice with one variable per
// ship month (mo_1992_01 .. mo_1998_12) — the "prices change per month"
// hypotheticals, compressible by the DateTree.
func InstrumentByShipMonth(cat engine.Catalog, names *polynomial.Names) (engine.Catalog, error) {
	return instrumentLineitem(cat, names, provenance.VarSpec{Prefix: "mo_", Columns: []string{"l_shipmonth"}})
}

// InstrumentBySupplierNation parameterizes l_extendedprice with one variable
// per supplier nation (nat_FRANCE, ...) — "supplier-country cost changes",
// compressible by the NationRegionTree.
func InstrumentBySupplierNation(cat engine.Catalog, names *polynomial.Names) (engine.Catalog, error) {
	return instrumentLineitem(cat, names, provenance.VarSpec{Prefix: "nat_", Columns: []string{"l_suppnation"}})
}

func instrumentLineitem(cat engine.Catalog, names *polynomial.Names, spec provenance.VarSpec) (engine.Catalog, error) {
	li, ok := cat["lineitem"]
	if !ok {
		return nil, fmt.Errorf("tpch: catalog has no lineitem")
	}
	inst, err := provenance.ParameterizeColumnN(li, "l_extendedprice", []provenance.VarSpec{spec}, names, 1)
	if err != nil {
		return nil, err
	}
	out := make(engine.Catalog, len(cat))
	for k, v := range cat {
		out[k] = v
	}
	out["lineitem"] = inst
	return out, nil
}

// DateTree builds the month→quarter→year abstraction tree over the ship
// months 1992-01 .. 1998-12 (84 leaves, 28 quarters, 7 years).
func DateTree(names *polynomial.Names) *abstraction.Tree {
	t := abstraction.NewTree("AllTime", names)
	for y := 1992; y <= 1998; y++ {
		for m := 1; m <= 12; m++ {
			q := (m + 2) / 3
			leaf := fmt.Sprintf("mo_%d_%02d", y, m)
			if _, err := t.AddPath(fmt.Sprintf("y%d", y), fmt.Sprintf("y%dq%d", y, q), leaf); err != nil {
				panic(err)
			}
		}
	}
	return t
}

// NationRegionTree builds the nation→region tree (25 leaves, 5 regions)
// used with InstrumentBySupplierNation.
func NationRegionTree(names *polynomial.Names) *abstraction.Tree {
	t := abstraction.NewTree("World", names)
	for _, n := range nations {
		region := sanitizeName(regions[n.region])
		if _, err := t.AddPath(region, "nat_"+sanitizeName(n.name)); err != nil {
			panic(err)
		}
	}
	return t
}

func sanitizeName(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == ' ' {
			c = '_'
		}
		out[i] = c
	}
	return string(out)
}
