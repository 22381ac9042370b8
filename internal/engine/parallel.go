package engine

import (
	"fmt"

	"github.com/cobra-prov/cobra/internal/parallel"
	"github.com/cobra-prov/cobra/internal/polynomial"
	"github.com/cobra-prov/cobra/internal/relation"
)

// CollectN drains an iterator into a materialized relation using up to
// workers goroutines. With workers <= 1 it is exactly Collect. With more,
// operators that support partition-parallel execution (Scan, Filter,
// Project, HashJoin, NestedLoopJoin, GroupBy, Sort, Distinct, Union)
// materialize their output by sharding rows over the pool; any other
// operator (e.g. Limit) falls back to draining its whole subtree
// sequentially.
//
// Determinism guarantee: the materialized relation is bit-identical to the
// sequential Collect for every worker count. Shards are contiguous row
// ranges concatenated in shard order, and per-group and per-key state is
// always folded by a single worker in input-row order, so no floating-point
// summation is ever reassociated. Errors are deterministic too: within one
// operator, the error of the first failing row in input order is reported,
// as the sequential scan would. When *several operators* of a plan would
// each fail, the surfaced error can differ from the sequential schedule
// (which interleaves row-at-a-time across operators), because
// materialization runs each operator's input to completion first — but it
// is still the same error for every worker count.
func CollectN(name string, it Iterator, workers int) (*relation.Relation, error) {
	if parallel.Normalize(workers) <= 1 {
		return Collect(name, it)
	}
	rows, err := materialize(it, workers)
	if err != nil {
		return nil, err
	}
	out := relation.NewRelation(name, it.Schema())
	// Cap the slice so appends by the caller cannot write into a shared
	// backing array (a bare Scan shares the base relation's row slice).
	out.Rows = rows[:len(rows):len(rows)]
	return out, nil
}

// concatRows flattens per-shard buffers in shard order.
func concatRows(parts [][]relation.Tuple) []relation.Tuple {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]relation.Tuple, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// materialize computes an operator's complete output with the worker pool.
// Only called with workers > 1.
func materialize(it Iterator, workers int) ([]relation.Tuple, error) {
	switch op := it.(type) {
	case *Scan:
		return op.rel.Rows, nil
	case *Filter:
		return materializeFilter(op, workers)
	case *Project:
		return materializeProject(op, workers)
	case *HashJoin:
		return materializeHashJoin(op, workers)
	case *NestedLoopJoin:
		return materializeNestedLoop(op, workers)
	case *GroupBy:
		return materializeGroupBy(op, workers)
	case *Sort:
		return materializeSort(op, workers)
	case *Distinct:
		return materializeDistinct(op, workers)
	case *Union:
		return materializeUnion(op, workers)
	default:
		// No partition-parallel path (e.g. Limit, whose row budget must
		// not force evaluation past the cutoff): run the subtree through
		// the ordinary iterator protocol.
		return drain(it)
	}
}

// drain runs an operator subtree sequentially via the Volcano pull loop,
// collecting the rows. Values are copied out of the operators' reused row
// buffers (row-validity contract) into slabs carved in chunks — the
// copies are the materialized result itself.
func drain(it Iterator) ([]relation.Tuple, error) {
	var rows []relation.Tuple
	var slab []relation.Value
	err := Stream(it, func(t relation.Tuple) error {
		n := len(t.Values)
		if len(slab) < n {
			chunk := 8192
			if chunk < n {
				chunk = n
			}
			//cobra:hotalloc slab refill amortized over thousands of materialized rows
			slab = make([]relation.Value, chunk)
		}
		vals := slab[:n:n]
		slab = slab[n:]
		copy(vals, t.Values)
		rows = append(rows, relation.Tuple{Values: vals, Ann: t.Ann})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// materializeFilter evaluates the predicate shard by shard, marking kept
// rows and counting them per shard, then copies the kept rows into one
// output slice of exact size: shard s writes from the sum of the earlier
// shards' counts, so row order is input order.
func materializeFilter(f *Filter, workers int) ([]relation.Tuple, error) {
	in, err := materialize(f.in, workers)
	if err != nil {
		return nil, err
	}
	w := parallel.Normalize(workers)
	keep := make([]bool, len(in))
	counts := make([]int, w)
	errs := make([]parallel.RowErr, w)
	parallel.Chunks(workers, len(in), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			v, err := f.pred.Eval(&in[i])
			if err != nil {
				errs[shard] = parallel.RowErr{Err: err, Row: i}
				return
			}
			if Truthy(v) {
				keep[i] = true
				counts[shard]++
			}
		}
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	total := 0
	for s, c := range counts {
		counts[s] = total // now the shard's output offset
		total += c
	}
	out := make([]relation.Tuple, total)
	// Same (workers, n) as above, so the same shard boundaries.
	parallel.Chunks(workers, len(in), func(shard, lo, hi int) {
		o := counts[shard]
		for i := lo; i < hi; i++ {
			if keep[i] {
				out[o] = in[i]
				o++
			}
		}
	})
	return out, nil
}

func materializeProject(p *Project, workers int) ([]relation.Tuple, error) {
	in, err := materialize(p.in, workers)
	if err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, len(in))
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, len(in), func(shard, lo, hi int) {
		// Per-shard output slab, carved in chunks: the projected rows are
		// the materialized result itself, so the slab is pure win over a
		// per-row make.
		var slab []relation.Value
		n := len(p.projs)
		for i := lo; i < hi; i++ {
			t := &in[i]
			if len(slab) < n {
				chunk := 8192
				if chunk < n {
					chunk = n
				}
				//cobra:hotalloc slab refill amortized over thousands of projected rows
				slab = make([]relation.Value, chunk)
			}
			vals := slab[:n:n]
			slab = slab[n:]
			for c := range p.projs {
				v, err := p.projs[c].Expr.Eval(t)
				if err != nil {
					errs[shard] = parallel.RowErr{Err: err, Row: i}
					return
				}
				vals[c] = v
			}
			out[i] = relation.Tuple{Values: vals, Ann: t.Ann}
		}
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	return out, nil
}

func materializeHashJoin(j *HashJoin, workers int) ([]relation.Tuple, error) {
	// Build side first: sequentially its drain happens inside Open, before
	// any probe row is pulled, so its errors surface first.
	build, err := materialize(j.right, workers)
	if err != nil {
		return nil, err
	}
	probe, err := materialize(j.left, workers)
	if err != nil {
		return nil, err
	}

	// Per-worker hash tables over contiguous build ranges, merged in shard
	// order: every key's match list ends up in build-input order, exactly
	// as the sequential build produces it.
	w := parallel.Normalize(workers)
	tables := make([]map[string][]relation.Tuple, w)
	errs := make([]parallel.RowErr, w)
	parallel.Chunks(workers, len(build), func(shard, lo, hi int) {
		tbl := make(map[string][]relation.Tuple)
		var buf []byte
		for i := lo; i < hi; i++ {
			key, skip, err := joinKey(&build[i], j.rightKeys, buf[:0])
			if err != nil {
				errs[shard] = parallel.RowErr{Err: err, Row: i}
				break
			}
			if skip {
				continue
			}
			buf = key
			tbl[string(key)] = append(tbl[string(key)], build[i])
		}
		tables[shard] = tbl
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	table := make(map[string][]relation.Tuple)
	for _, tbl := range tables {
		for k, rows := range tbl {
			table[k] = append(table[k], rows...)
		}
	}

	// Probe in parallel; per-probe-row output slots keep the sequential
	// emit order (each left row followed by its matches in table order).
	// Output tuples and their values are carved from per-shard slabs
	// refilled in chunks — the joined rows are the materialized result
	// itself, so the slabs are pure win over per-row makes.
	matches := make([][]relation.Tuple, len(probe))
	perrs := make([]parallel.RowErr, w)
	parallel.Chunks(workers, len(probe), func(shard, lo, hi int) {
		var buf []byte
		var tupSlab []relation.Tuple
		var valSlab []relation.Value
		for i := lo; i < hi; i++ {
			key, skip, err := joinKey(&probe[i], j.leftKeys, buf[:0])
			if err != nil {
				perrs[shard] = parallel.RowErr{Err: err, Row: i}
				return
			}
			if skip {
				continue
			}
			buf = key
			rs := table[string(key)]
			if len(rs) == 0 {
				continue
			}
			if len(tupSlab) < len(rs) {
				chunk := 4096
				if chunk < len(rs) {
					chunk = len(rs)
				}
				//cobra:hotalloc slab refill amortized over thousands of joined rows
				tupSlab = make([]relation.Tuple, chunk)
			}
			out := tupSlab[:len(rs):len(rs)]
			tupSlab = tupSlab[len(rs):]
			for m, r := range rs {
				nv := len(probe[i].Values) + len(r.Values)
				if len(valSlab) < nv {
					chunk := 8192
					if chunk < nv {
						chunk = nv
					}
					//cobra:hotalloc slab refill amortized over thousands of joined rows
					valSlab = make([]relation.Value, chunk)
				}
				vals := valSlab[:nv:nv]
				valSlab = valSlab[nv:]
				copy(vals, probe[i].Values)
				copy(vals[len(probe[i].Values):], r.Values)
				out[m] = relation.Tuple{Values: vals, Ann: polynomial.Mul(probe[i].Ann, r.Ann)}
			}
			matches[i] = out
		}
	})
	if bad := parallel.FirstRowErr(perrs); bad.Err != nil {
		return nil, bad.Err
	}
	return concatRows(matches), nil
}

func materializeNestedLoop(j *NestedLoopJoin, workers int) ([]relation.Tuple, error) {
	// Right side first: sequentially it is materialized inside Open,
	// before any outer row is pulled, so its errors surface first.
	right, err := materialize(j.right, workers)
	if err != nil {
		return nil, err
	}
	left, err := materialize(j.left, workers)
	if err != nil {
		return nil, err
	}
	matches := make([][]relation.Tuple, len(left))
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, len(left), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			var out []relation.Tuple
			for ri := range right {
				joined := joinTuples(left[i], right[ri])
				if j.pred != nil {
					v, err := j.pred.Eval(&joined)
					if err != nil {
						errs[shard] = parallel.RowErr{Err: err, Row: i}
						return
					}
					if !Truthy(v) {
						continue
					}
				}
				out = append(out, joined)
			}
			matches[i] = out
		}
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	return concatRows(matches), nil
}

func materializeGroupBy(g *GroupBy, workers int) ([]relation.Tuple, error) {
	in, err := materialize(g.in, workers)
	if err != nil {
		return nil, err
	}
	n := len(in)

	// Phase 1: per-row group keys (values and hash bytes), in parallel.
	// Key bytes stay []byte windows into per-shard append-only slabs so
	// the sequential grouping phase can probe the index with the elided
	// string(bytes) map read — the key string materializes once per
	// distinct group, exactly as the sequential build does, not per row.
	keyVals := make([][]relation.Value, n)
	keyBytes := make([][]byte, n)
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, n, func(shard, lo, hi int) {
		var kb []byte
		var slab []relation.Value
		nk := len(g.keys)
		for i := lo; i < hi; i++ {
			if len(slab) < nk {
				chunk := 8192
				if chunk < nk {
					chunk = nk
				}
				//cobra:hotalloc slab refill amortized over thousands of grouped rows
				slab = make([]relation.Value, chunk)
			}
			vals := slab[:nk:nk]
			slab = slab[nk:]
			off := len(kb)
			for k, key := range g.keys {
				v, err := key.Eval(&in[i])
				if err != nil {
					errs[shard] = parallel.RowErr{Err: err, Row: i}
					return
				}
				if v.Kind == relation.KindPoly {
					errs[shard] = parallel.RowErr{Err: fmt.Errorf("engine: GROUP BY over a symbolic value"), Row: i}
					return
				}
				vals[k] = v
				// Appends may move kb to a fresh backing; windows taken
				// for earlier rows keep pointing into the old one, whose
				// bytes are never rewritten.
				kb = v.Key(kb)
			}
			keyVals[i] = vals
			keyBytes[i] = kb[off:len(kb):len(kb)]
		}
	})
	// A key error does not surface yet: the sequential scan processes each
	// row fully (key evaluation, then accumulation) before the next, so an
	// accumulation error on an earlier row must win. Rows from the first
	// failing key onwards are excluded, exactly as the sequential drain
	// never reaches them.
	keyBad := parallel.FirstRowErr(errs)
	limit := n
	if keyBad.Err != nil {
		limit = keyBad.Row
	}

	// Phase 2: sequential grouping in input order (cheap map lookups over
	// the precomputed keys), preserving the sequential first-seen group
	// order.
	index := make(map[string]int)
	var groupRows [][]int
	var groupKeys [][]relation.Value
	for i := 0; i < limit; i++ {
		// Read with string(bytes) directly (elided on map reads); the key
		// string materializes only per distinct group.
		gi, ok := index[string(keyBytes[i])]
		if !ok {
			gi = len(groupRows)
			//cobra:hotalloc the map retains its key: one allocation per distinct group, not per input row
			index[string(keyBytes[i])] = gi
			groupRows = append(groupRows, nil)
			groupKeys = append(groupKeys, keyVals[i])
		}
		groupRows[gi] = append(groupRows[gi], i)
	}

	// Phase 3: per-group accumulation. Each group's rows are folded in
	// input order by a single worker, so per-group aggregate state (float
	// sums, polynomial builders, annotation sums) is bit-identical to the
	// sequential fold; groups themselves are independent. Finalize errors
	// rank after all accumulation errors, as in the sequential path.
	out := make([]relation.Tuple, len(groupRows))
	gerrs := make([]parallel.RowErr, len(groupRows))
	parallel.ForEach(workers, len(groupRows), func(gi int) {
		states := make([]aggState, len(g.aggs))
		ann := polynomial.Zero()
		for _, ri := range groupRows[gi] {
			t := &in[ri]
			ann = polynomial.Add(ann, t.Ann)
			for ai := range g.aggs {
				if err := g.accumulate(&states[ai], &g.aggs[ai], t); err != nil {
					gerrs[gi] = parallel.RowErr{Err: err, Row: ri}
					return
				}
			}
		}
		vals := make([]relation.Value, 0, len(groupKeys[gi])+len(g.aggs))
		vals = append(vals, groupKeys[gi]...)
		for ai := range g.aggs {
			v, err := finalize(&states[ai], &g.aggs[ai])
			if err != nil {
				gerrs[gi] = parallel.RowErr{Err: err, Row: n + gi}
				return
			}
			vals = append(vals, v)
		}
		out[gi] = relation.Tuple{Values: vals, Ann: ann}
	})
	// Merge phase errors by sequential position: accumulation errors on
	// rows before the first key error precede it; the key error precedes
	// finalize errors (rows beyond n), which the sequential drain would
	// never have reached.
	bad := parallel.FirstRowErr(gerrs)
	if keyBad.Err != nil && (bad.Err == nil || keyBad.Row < bad.Row) {
		bad = keyBad
	}
	if bad.Err != nil {
		return nil, bad.Err
	}
	return out, nil
}

func materializeSort(s *Sort, workers int) ([]relation.Tuple, error) {
	in, err := materialize(s.in, workers)
	if err != nil {
		return nil, err
	}
	keyVals := make([][]relation.Value, len(in))
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, len(in), func(shard, lo, hi int) {
		for i := lo; i < hi; i++ {
			ks := make([]relation.Value, len(s.keys))
			for k := range s.keys {
				v, err := s.keys[k].Expr.Eval(&in[i])
				if err != nil {
					errs[shard] = parallel.RowErr{Err: err, Row: i}
					return
				}
				ks[k] = v
			}
			keyVals[i] = ks
		}
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	// The sort itself is the sequential code path, so ties, comparison
	// errors and the stable order are identical by construction.
	return sortByKeys(in, keyVals, s.keys)
}

func materializeDistinct(d *Distinct, workers int) ([]relation.Tuple, error) {
	in, err := materialize(d.in, workers)
	if err != nil {
		return nil, err
	}
	keyStrs := make([]string, len(in))
	errs := make([]parallel.RowErr, parallel.Normalize(workers))
	parallel.Chunks(workers, len(in), func(shard, lo, hi int) {
		var buf []byte
		for i := lo; i < hi; i++ {
			buf = buf[:0]
			for _, v := range in[i].Values {
				if v.Kind == relation.KindPoly {
					errs[shard] = parallel.RowErr{Err: fmt.Errorf("engine: DISTINCT over symbolic values is not supported"), Row: i}
					return
				}
				buf = v.Key(buf)
			}
			keyStrs[i] = string(buf)
		}
	})
	if bad := parallel.FirstRowErr(errs); bad.Err != nil {
		return nil, bad.Err
	}
	// Sequential merge in input order: annotation additions happen in
	// exactly the sequential order.
	index := make(map[string]int)
	var out []relation.Tuple
	for i := range in {
		if di, dup := index[keyStrs[i]]; dup {
			out[di].Ann = polynomial.Add(out[di].Ann, in[i].Ann)
			continue
		}
		index[keyStrs[i]] = len(out)
		out = append(out, in[i].Clone())
	}
	return out, nil
}

func materializeUnion(u *Union, workers int) ([]relation.Tuple, error) {
	l, err := materialize(u.l, workers)
	if err != nil {
		return nil, err
	}
	r, err := materialize(u.r, workers)
	if err != nil {
		return nil, err
	}
	out := make([]relation.Tuple, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...), nil
}
