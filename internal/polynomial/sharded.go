package polynomial

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/cobra-prov/cobra/internal/parallel"
)

// DefaultShardMonomials is the shard-size target used when ShardOptions
// leaves TargetMonomials unset.
const DefaultShardMonomials = 1 << 16

// ShardOptions configures how a ShardedSet partitions and spills its
// polynomials.
type ShardOptions struct {
	// TargetMonomials caps the monomials per shard (whole polynomials are
	// never split, so a single polynomial larger than the target forms a
	// shard of its own). <= 0 selects DefaultShardMonomials.
	TargetMonomials int
	// MaxResidentMonomials bounds the monomials the ShardedSet keeps in
	// memory at once: sealed shards beyond the budget are spilled to temp
	// files and re-loaded one at a time during streaming passes. <= 0
	// disables spilling (everything stays resident). When set, the
	// effective shard target is clamped to half the budget so that one
	// in-flight shard plus one loaded shard fit.
	MaxResidentMonomials int
	// SpillDir is where spill files are created ("" = os.TempDir()). The
	// ShardedSet creates a private subdirectory and removes it on Close.
	SpillDir string
}

// withDefaults resolves the effective shard target.
func (o ShardOptions) withDefaults() ShardOptions {
	if o.TargetMonomials <= 0 {
		o.TargetMonomials = DefaultShardMonomials
	}
	if o.MaxResidentMonomials > 0 {
		if half := o.MaxResidentMonomials / 2; o.TargetMonomials > half {
			o.TargetMonomials = half
			if o.TargetMonomials < 1 {
				o.TargetMonomials = 1
			}
		}
	}
	return o
}

// shard is one fixed-size slice of a ShardedSet: resident (set != nil),
// or spilled to path. Metadata (polys, mons, used) survives spilling.
type shard struct {
	set   *Set
	path  string
	polys int
	mons  int
	used  []Var // distinct vars of the shard, ascending
}

// ShardedSet is a polynomial Set split into fixed-size shards sharing one
// Names namespace, with optional spill-to-disk so sets larger than memory
// can flow through compression and valuation shard-at-a-time. Shard order
// is deterministic: concatenating the shards yields exactly the Set the
// polynomials were added as.
//
// A finished ShardedSet is safe for concurrent read-path use: streaming
// passes (ForEachShard and everything built on it) serialize on an
// internal mutex — they run one at a time, each parallelizing within a
// shard, never across passes — and the residency counters and the lazy
// used-variables cache are guarded separately so metadata reads never
// block a pass. Building (ShardBuilder.Add/Finish) is single-goroutine.
type ShardedSet struct {
	names *Names
	opts  ShardOptions

	shards  []*shard
	polyOff []int // polyOff[i] = polynomials before shard i; len = len(shards)+1

	size int // total monomials

	// iterMu serializes streaming passes: a pass may load and evict
	// spilled shards, so two passes interleaving would fight over the
	// residency budget. closed is guarded by iterMu (a pass must not race
	// a Close).
	iterMu sync.Mutex
	closed bool // guarded by iterMu

	// statMu guards the residency counters and the usedVars cache — the
	// metadata concurrent solvers read while a pass is in flight.
	statMu       sync.Mutex
	resident     int    // guarded by statMu; monomials currently in memory
	peakResident int    // guarded by statMu
	spilled      int    // guarded by statMu; shards currently on disk
	spillDir     string // guarded by statMu

	// usedVars caches the merged per-shard used-variable sets; usedValid
	// is cleared whenever a new shard is sealed into the set.
	usedVars  []Var // guarded by statMu
	usedValid bool  // guarded by statMu

	// encBuf is the spill encode scratch, reused across spills. It is
	// only touched by spillShard, whose callers are serialized (building
	// is single-goroutine; streaming passes hold iterMu).
	encBuf []byte
}

// Names returns the shared variable namespace.
func (ss *ShardedSet) Names() *Names { return ss.names }

// Namespace returns the shared variable namespace (SetSource form).
func (ss *ShardedSet) Namespace() *Names { return ss.names }

// Options returns the options the set was built with (with defaults
// resolved).
func (ss *ShardedSet) Options() ShardOptions { return ss.opts }

// NumShards returns the number of shards.
func (ss *ShardedSet) NumShards() int { return len(ss.shards) }

// Len returns the total number of polynomials.
func (ss *ShardedSet) Len() int { return ss.polyOff[len(ss.polyOff)-1] }

// Size returns the total number of monomials — the provenance size measure
// optimized by COBRA.
func (ss *ShardedSet) Size() int { return ss.size }

// PolyOffset returns the number of polynomials before shard i — the global
// index of the shard's first polynomial.
func (ss *ShardedSet) PolyOffset(i int) int { return ss.polyOff[i] }

// ResidentMonomials returns the monomials currently held in memory.
func (ss *ShardedSet) ResidentMonomials() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.resident
}

// PeakResidentMonomials returns the high-water mark of resident monomials
// over the set's lifetime (building, loading, and streaming passes).
func (ss *ShardedSet) PeakResidentMonomials() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.peakResident
}

// SpilledShards returns the number of shards currently on disk.
func (ss *ShardedSet) SpilledShards() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return ss.spilled
}

// UsedVars returns the distinct variables appearing anywhere in the set,
// ascending. It uses per-shard metadata recorded at seal time, so it never
// touches the spill files; the merged result is computed once and cached
// (the cache is invalidated when the set gains a shard), and a fresh copy
// is returned so callers cannot corrupt the cache.
func (ss *ShardedSet) UsedVars() []Var {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return append([]Var(nil), ss.usedVarsLocked()...)
}

// usedVarsLocked computes (or returns) the cached merge. statMu must be held.
func (ss *ShardedSet) usedVarsLocked() []Var {
	if !ss.usedValid {
		seen := make(map[Var]bool)
		var out []Var
		for _, sh := range ss.shards {
			for _, v := range sh.used {
				if !seen[v] {
					seen[v] = true
					out = append(out, v)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		ss.usedVars = out
		ss.usedValid = true
	}
	return ss.usedVars
}

// NumVars returns the number of distinct variables appearing in the set.
func (ss *ShardedSet) NumVars() int {
	ss.statMu.Lock()
	defer ss.statMu.Unlock()
	return len(ss.usedVarsLocked())
}

// ForEachShard invokes fn once per shard in shard order, passing the
// shard's index, the global index of its first polynomial, and the shard's
// polynomials as a Set sharing the namespace. Spilled shards are loaded
// one at a time and evicted again after fn returns, so the resident
// footprint stays within the budget. fn must not retain or mutate the Set
// beyond the call, and must not start another pass (ForEachShard or
// Materialize) or Close the same set — passes serialize on a mutex held
// for the whole iteration, so a nested pass deadlocks. Metadata accessors
// (Size, Len, UsedVars, ResidentMonomials, ...) remain safe to call from
// fn and from other goroutines. Iteration stops at fn's first error.
func (ss *ShardedSet) ForEachShard(fn func(i, firstPoly int, s *Set) error) error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return fmt.Errorf("polynomial: ShardedSet is closed")
	}
	return ss.forEachShardLocked(fn)
}

// ForEachShardParallel streams the shards into fn in shard order, exactly
// like ForEachShard, but loads spilled shards from disk on up to workers
// goroutines so fn never waits on the disk: while fn consumes shard i,
// shards i+1..i+workers-1 are already being read and decoded. fn itself
// always runs sequentially, in shard order, on the calling goroutine — the
// pass is bit-identical to the sequential one for any worker count.
//
// The concurrency is clamped so the window of concurrently loaded shards
// fits the residency budget on top of whatever is already resident; when
// the budget leaves no headroom for even two in-flight loads the pass
// degrades to plain ForEachShard. The restrictions of ForEachShard apply
// unchanged (no nested passes, fn must not retain the Set).
func (ss *ShardedSet) ForEachShardParallel(workers int, fn func(i, firstPoly int, s *Set) error) error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return fmt.Errorf("polynomial: ShardedSet is closed")
	}
	workers = ss.clampParallelWorkers(workers)
	if workers <= 1 {
		return ss.forEachShardLocked(fn)
	}
	resident0 := ss.ResidentMonomials()
	err := parallel.Ordered(workers, len(ss.shards),
		func(i int) (*Set, error) {
			sh := ss.shards[i]
			if sh.set != nil {
				return sh.set, nil
			}
			set, err := readShardFile(sh.path, ss.names)
			if err != nil {
				return nil, fmt.Errorf("polynomial: loading shard %d: %w", i, err)
			}
			ss.trackResident(sh.mons)
			return set, nil
		},
		func(i int, set *Set) error {
			sh := ss.shards[i]
			err := fn(i, ss.polyOff[i], set)
			if sh.set == nil {
				ss.trackResident(-sh.mons)
			}
			return err
		})
	if err != nil {
		// Loads claimed past the failing shard were tracked by the
		// producer but never released by the (never-run) consumer; the
		// transient sets are unreachable once Ordered drains, so restore
		// the counter to the pre-pass residency.
		ss.statMu.Lock()
		ss.resident = resident0
		ss.statMu.Unlock()
	}
	return err
}

// clampParallelWorkers bounds a parallel pass's worker count so the
// reorder window of concurrently loaded spilled shards (worst case:
// workers × the largest spilled shard) fits the residency budget on top
// of the already-resident shards. iterMu must be held.
func (ss *ShardedSet) clampParallelWorkers(workers int) int {
	workers = parallel.Normalize(workers)
	if workers > len(ss.shards) {
		workers = len(ss.shards)
	}
	budget := ss.opts.MaxResidentMonomials
	if workers <= 1 || budget <= 0 {
		return workers
	}
	maxMons := 0
	for _, sh := range ss.shards {
		if sh.set == nil && sh.mons > maxMons {
			maxMons = sh.mons
		}
	}
	if maxMons == 0 {
		return workers // nothing spilled: no loads, no residency cost
	}
	if avail := budget - ss.ResidentMonomials(); avail/maxMons < workers {
		workers = avail / maxMons
	}
	return workers
}

// forEachShardLocked is the body of ForEachShard; iterMu must be held.
func (ss *ShardedSet) forEachShardLocked(fn func(i, firstPoly int, s *Set) error) error {
	for i, sh := range ss.shards {
		set := sh.set
		loaded := false
		if set == nil {
			// Make room first so the load itself never breaches the budget.
			if err := ss.spillOver(sh.mons); err != nil {
				return err
			}
			var err error
			set, err = readShardFile(sh.path, ss.names)
			if err != nil {
				return fmt.Errorf("polynomial: loading shard %d: %w", i, err)
			}
			loaded = true
			ss.trackResident(sh.mons)
		}
		err := fn(i, ss.polyOff[i], set)
		if loaded {
			ss.trackResident(-sh.mons)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Materialize concatenates all shards into one in-memory Set.
func (ss *ShardedSet) Materialize() (*Set, error) {
	out := NewSet(ss.names)
	if err := Copy(ss, out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close removes the spill directory and releases the shards. The set must
// not be used afterwards. Close waits for any in-flight streaming pass to
// finish before tearing down.
func (ss *ShardedSet) Close() error {
	ss.iterMu.Lock()
	defer ss.iterMu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	ss.shards = nil
	ss.statMu.Lock()
	dir := ss.spillDir
	ss.statMu.Unlock()
	if dir != "" {
		return os.RemoveAll(dir)
	}
	return nil
}

func (ss *ShardedSet) trackResident(delta int) {
	ss.statMu.Lock()
	ss.resident += delta
	if ss.resident > ss.peakResident {
		ss.peakResident = ss.resident
	}
	ss.statMu.Unlock()
}

// spillOver spills the oldest resident sealed shards until the resident
// count (including extra monomials the caller is about to hold) fits the
// budget. With no budget it is a no-op.
func (ss *ShardedSet) spillOver(extra int) error {
	budget := ss.opts.MaxResidentMonomials
	if budget <= 0 {
		return nil
	}
	for _, sh := range ss.shards {
		ss.statMu.Lock()
		fits := ss.resident+extra <= budget
		ss.statMu.Unlock()
		if fits {
			return nil
		}
		if sh.set == nil {
			continue
		}
		if err := ss.spillShard(sh); err != nil {
			return err
		}
	}
	return nil
}

// spillShard writes one sealed shard into the set's private spill
// directory (one directory per set/builder, created on first spill, so
// Close and ShardBuilder.Discard can remove every spill file wholesale
// with a single RemoveAll — no per-file bookkeeping, no leaks from
// abandoned builders). A failed write removes its partial file
// immediately, so even before Close the directory holds only complete
// shards.
func (ss *ShardedSet) spillShard(sh *shard) error {
	ss.statMu.Lock()
	dir := ss.spillDir
	seq := ss.spilled
	ss.statMu.Unlock()
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp(ss.opts.SpillDir, "cobra-shards-")
		if err != nil {
			return fmt.Errorf("polynomial: creating spill dir: %w", err)
		}
		ss.statMu.Lock()
		ss.spillDir = dir
		ss.statMu.Unlock()
	}
	path := filepath.Join(dir, fmt.Sprintf("shard-%06d.bin", seq))
	// The encode buffer is reused across spills; spillShard callers are
	// serialized (single-goroutine building, passes under iterMu), so the
	// set-level scratch is never shared between concurrent writers.
	buf, err := writeShardFile(path, sh.set, ss.encBuf)
	ss.encBuf = buf
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("polynomial: spilling shard: %w", err)
	}
	sh.path = path
	sh.set = nil
	ss.statMu.Lock()
	ss.spilled++
	ss.resident -= sh.mons
	ss.statMu.Unlock()
	return nil
}

// ShardBuilder accumulates polynomials into a ShardedSet without ever
// holding more than the memory budget: shards seal when they reach the
// target size and spill once the resident budget is exceeded. The zero
// value is not usable; call NewShardBuilder.
type ShardBuilder struct {
	ss        *ShardedSet
	cur       *Set
	curMons   int // monomials in cur, kept running so Add never rescans it
	lastPolys int // previous shard's polynomial count, to pre-size the next
	done      bool
}

// NewShardBuilder starts building a ShardedSet over names (a fresh
// namespace if nil).
func NewShardBuilder(names *Names, opts ShardOptions) *ShardBuilder {
	if names == nil {
		names = NewNames()
	}
	return &ShardBuilder{
		ss: &ShardedSet{names: names, opts: opts.withDefaults(), polyOff: []int{0}},
	}
}

// Namespace returns the namespace the built set shares.
func (b *ShardBuilder) Namespace() *Names { return b.ss.names }

// Add appends a named polynomial, sealing and possibly spilling shards as
// budgets fill up.
func (b *ShardBuilder) Add(key string, p Polynomial) error {
	if b.done {
		return fmt.Errorf("polynomial: ShardBuilder already finished")
	}
	if b.cur == nil {
		b.cur = NewSet(b.ss.names)
		if b.lastPolys > 0 {
			// Shards of one workload seal at near-identical polynomial
			// counts, so sizing from the previous shard (with slack for
			// drift) removes the append-doubling churn of filling a shard.
			b.cur.Grow(b.lastPolys + b.lastPolys/8)
		}
	}
	// Spill sealed shards first so the new monomials never push the
	// resident count past the budget (the open shard itself cannot spill).
	if err := b.ss.spillOver(len(p.Mons)); err != nil {
		return err
	}
	if err := b.cur.Add(key, p); err != nil {
		return err
	}
	b.curMons += len(p.Mons)
	b.ss.size += len(p.Mons)
	b.ss.trackResident(len(p.Mons))
	target := b.ss.opts.TargetMonomials
	if b.curMons >= target || b.cur.Len() >= target {
		return b.seal()
	}
	return nil
}

// AddSet appends every polynomial of s in order.
func (b *ShardBuilder) AddSet(s *Set) error {
	for i, key := range s.Keys {
		if err := b.Add(key, s.Polys[i]); err != nil {
			return err
		}
	}
	return nil
}

// seal freezes the current shard, records its metadata, and spills older
// shards if the resident budget is exceeded. Sealing extends the set, so
// it invalidates the cached UsedVars merge.
func (b *ShardBuilder) seal() error {
	if b.cur == nil || b.cur.Len() == 0 {
		return nil
	}
	sh := &shard{set: b.cur, polys: b.cur.Len(), mons: b.curMons, used: b.cur.UsedVars()}
	b.lastPolys = sh.polys
	b.ss.shards = append(b.ss.shards, sh)
	b.ss.polyOff = append(b.ss.polyOff, b.ss.polyOff[len(b.ss.polyOff)-1]+sh.polys)
	b.ss.statMu.Lock()
	b.ss.usedValid = false
	b.ss.usedVars = nil
	b.ss.statMu.Unlock()
	b.cur = nil
	b.curMons = 0
	return b.ss.spillOver(0)
}

// Finish seals the last shard and returns the built set. The builder must
// not be used afterwards. On error the partial set (including any spill
// files) is released.
func (b *ShardBuilder) Finish() (*ShardedSet, error) {
	if b.done {
		return nil, fmt.Errorf("polynomial: ShardBuilder already finished")
	}
	b.done = true
	if err := b.seal(); err != nil {
		b.ss.Close()
		return nil, err
	}
	return b.ss, nil
}

// Discard abandons the build, removing any spill files already written.
// It is a no-op after Finish (the finished set owns the files then), so
// callers can safely `defer b.Discard()` to cover every error path.
func (b *ShardBuilder) Discard() {
	if b.done {
		return
	}
	b.done = true
	b.ss.Close()
}

// BuildSharded splits an in-memory Set into a ShardedSet under opts. The
// input set is not retained; its polynomials are shared (not deep-copied),
// so the caller should drop the original to realize the memory bound.
func BuildSharded(s *Set, opts ShardOptions) (*ShardedSet, error) {
	b := NewShardBuilder(s.Names, opts)
	defer b.Discard() // release partial spill files on any error path
	if err := b.AddSet(s); err != nil {
		return nil, err
	}
	return b.Finish()
}

// --- spill codec ---------------------------------------------------------
//
// Spill files are ephemeral and private to the process that wrote them:
// they share the in-memory Names namespace, so variables are stored as raw
// Var ids with no name table. The on-disk interchange formats (with name
// tables and cross-process guarantees) live in internal/polyio.

// The v2 codec is columnar: one key block, then the per-polynomial and
// per-monomial counts, then all coefficients, then all term vectors — so
// a shard decodes into a PackedSet's flat slabs with O(1) allocations
// instead of one per monomial (the v1 row-wise codec was 24% of E15's
// allocation profile).
var spillMagic = []byte("CSPILL2\n")

// testSpillWriteErr, when non-nil, is consulted before every shard-file
// write — a failpoint for exercising mid-build spill failures in tests.
var testSpillWriteErr func(path string) error

// writeShardFile encodes s into buf (reusing its capacity) and writes it
// to path, returning the grown buffer so callers can reuse it for the
// next spill.
func writeShardFile(path string, s *Set, buf []byte) ([]byte, error) {
	if testSpillWriteErr != nil {
		if err := testSpillWriteErr(path); err != nil {
			return buf, err
		}
	}
	buf = encodeShardPayload(buf[:0], s)
	f, err := os.Create(path)
	if err != nil {
		return buf, err
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return buf, err
}

// encodeShardPayload appends the columnar spill encoding of s to buf:
// magic, counts, the concatenated key block, per-polynomial key lengths
// and monomial counts, coefficient bits, per-monomial term counts, and
// finally every term as a (var, exp) uvarint pair.
func encodeShardPayload(buf []byte, s *Set) []byte {
	nMons, nTerms, keyBytes := 0, 0, 0
	for _, p := range s.Polys {
		nMons += len(p.Mons)
		for _, m := range p.Mons {
			nTerms += len(m.Terms)
		}
	}
	for _, k := range s.Keys {
		keyBytes += len(k)
	}
	buf = append(buf, spillMagic...)
	buf = binary.AppendUvarint(buf, uint64(s.Len()))
	buf = binary.AppendUvarint(buf, uint64(nMons))
	buf = binary.AppendUvarint(buf, uint64(nTerms))
	buf = binary.AppendUvarint(buf, uint64(keyBytes))
	for _, k := range s.Keys {
		buf = append(buf, k...)
	}
	for _, k := range s.Keys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
	}
	for _, p := range s.Polys {
		buf = binary.AppendUvarint(buf, uint64(len(p.Mons)))
	}
	for _, p := range s.Polys {
		for _, m := range p.Mons {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(m.Coef))
		}
	}
	for _, p := range s.Polys {
		for _, m := range p.Mons {
			buf = binary.AppendUvarint(buf, uint64(len(m.Terms)))
		}
	}
	for _, p := range s.Polys {
		for _, m := range p.Mons {
			for _, t := range m.Terms {
				buf = binary.AppendUvarint(buf, uint64(uint32(t.Var)))
				buf = binary.AppendUvarint(buf, uint64(uint32(t.Exp)))
			}
		}
	}
	return buf
}

func readShardFile(path string, names *Names) (*Set, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ps, err := decodeShardPayload(data, names)
	if err != nil {
		return nil, err
	}
	// Spilled monomials were canonical when written; no re-merge needed.
	return ps.View(), nil
}

// decodeShardPayload parses one spill file into a PackedSet, slicing the
// key block into substrings and bulk-filling the coefficient, offset and
// term slabs — a handful of allocations however many monomials the shard
// holds.
func decodeShardPayload(data []byte, names *Names) (*PackedSet, error) {
	if len(data) < len(spillMagic) || string(data[:len(spillMagic)]) != string(spillMagic) {
		return nil, fmt.Errorf("bad spill magic")
	}
	pos := len(spillMagic)
	uvarint := func() (int, error) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 || v > math.MaxInt32 {
			return 0, fmt.Errorf("corrupt spill varint at %d", pos)
		}
		pos += n
		return int(v), nil
	}
	nPolys, err := uvarint()
	if err != nil {
		return nil, err
	}
	nMons, err := uvarint()
	if err != nil {
		return nil, err
	}
	nTerms, err := uvarint()
	if err != nil {
		return nil, err
	}
	keyBytes, err := uvarint()
	if err != nil {
		return nil, err
	}
	if pos+keyBytes > len(data) {
		return nil, fmt.Errorf("corrupt spill key block")
	}
	keyBlock := string(data[pos : pos+keyBytes])
	pos += keyBytes
	ps := &PackedSet{
		names:   names,
		keys:    make([]string, nPolys),
		polyOff: make([]int32, nPolys+1),
		coefs:   make([]float64, nMons),
		monOff:  make([]int32, nMons+1),
		terms:   make([]Term, nTerms),
	}
	off := 0
	for i := range ps.keys {
		kn, err := uvarint()
		if err != nil {
			return nil, err
		}
		if off+kn > len(keyBlock) {
			return nil, fmt.Errorf("corrupt spill key lengths")
		}
		ps.keys[i] = keyBlock[off : off+kn]
		off += kn
	}
	total := 0
	for i := 0; i < nPolys; i++ {
		mc, err := uvarint()
		if err != nil {
			return nil, err
		}
		total += mc
		if total > nMons {
			return nil, fmt.Errorf("corrupt spill monomial counts")
		}
		ps.polyOff[i+1] = int32(total)
	}
	if total != nMons {
		return nil, fmt.Errorf("corrupt spill monomial counts")
	}
	if pos+8*nMons > len(data) {
		return nil, fmt.Errorf("corrupt spill coefficients")
	}
	for i := range ps.coefs {
		ps.coefs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[pos:]))
		pos += 8
	}
	total = 0
	for i := 0; i < nMons; i++ {
		tc, err := uvarint()
		if err != nil {
			return nil, err
		}
		total += tc
		if total > nTerms {
			return nil, fmt.Errorf("corrupt spill term counts")
		}
		ps.monOff[i+1] = int32(total)
	}
	if total != nTerms {
		return nil, fmt.Errorf("corrupt spill term counts")
	}
	for i := range ps.terms {
		v, err := uvarint()
		if err != nil {
			return nil, err
		}
		e, err := uvarint()
		if err != nil {
			return nil, err
		}
		ps.terms[i] = Term{Var: Var(int32(v)), Exp: int32(e)}
	}
	return ps, nil
}
