// Package cache implements execution-driven set-associative cache
// models with true-LRU replacement, Intel CAT-style way limiting, and
// CDP code/data way partitioning — the structures behind the paper's
// MPKI characterization (Figs 8–10) and the CDP knob (§5(4), Fig 16).
//
// Caches are driven by synthetic address streams from
// internal/workload; misses are *emergent* from capacity, associativity
// and partitioning, never asserted.
package cache

import "fmt"

// Kind distinguishes instruction (code) from data accesses, the axis
// CDP partitions on and the paper's MPKI breakdowns report.
type Kind uint8

// Access kinds.
const (
	Code Kind = iota
	Data
	numKinds
)

// String names the kind as in the paper's figures.
func (k Kind) String() string {
	if k == Code {
		return "code"
	}
	return "data"
}

// Config describes one cache's geometry and insertion policy.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	BlockBytes int
	// BIP selects the behaviour of a non-inclusive LLC with
	// thrash-resistant insertion, like Intel's: prefetched lines are
	// inserted at the LRU position (with an occasional MRU insertion),
	// so speculative streaming cannot flush the demand working set;
	// demand fills insert at MRU; and hits do NOT refresh recency —
	// on a hit the line moves up to the L2, so the LLC copy ages
	// under insertion churn until it is reinstalled. Partitioning a
	// class into its own quiet ways therefore extends its lines'
	// lifetimes — the mechanism CDP exploits (§6.1(4)).
	BIP bool
}

// Stats counts demand accesses and misses, split by kind, plus
// prefetch fills.
type Stats struct {
	Accesses      [numKinds]uint64
	Misses        [numKinds]uint64
	PrefetchFills uint64
	PrefetchHits  uint64 // demand hits on prefetched lines
}

// MissRatio returns misses/accesses for one kind (0 if no accesses).
func (s Stats) MissRatio(k Kind) float64 {
	if s.Accesses[k] == 0 {
		return 0
	}
	return float64(s.Misses[k]) / float64(s.Accesses[k])
}

// TotalMisses sums misses over both kinds.
func (s Stats) TotalMisses() uint64 { return s.Misses[Code] + s.Misses[Data] }

// TotalAccesses sums accesses over both kinds.
func (s Stats) TotalAccesses() uint64 { return s.Accesses[Code] + s.Accesses[Data] }

// MPKI returns misses per kilo-instruction for one kind given the
// retired instruction count.
func (s Stats) MPKI(k Kind, instructions uint64) float64 {
	if instructions == 0 {
		return 0
	}
	return float64(s.Misses[k]) / float64(instructions) * 1000
}

// Cache is a single set-associative cache with true-LRU replacement.
// It is not safe for concurrent use; the simulator serializes access.
//
// Lines are stored structure-of-arrays, sets × ways row-major: a
// lookup scans only the set's row of tags, and a line costs 12 bytes
// (tag, stamp) plus one prefetch bit.
type Cache struct {
	cfg      Config
	sets     int
	ways     int
	blockLg2 uint
	// setMask selects the set with a mask when sets is a power of two
	// (pow2Sets); otherwise the block index is reduced modulo sets.
	setMask  uint64
	pow2Sets bool
	tags     []uint64 // tag+1 per line; 0 marks an invalid line
	stamps   []uint32 // LRU stamp per line
	pf       []uint64 // bit per line: installed by a prefetcher, not yet demand-hit
	clock    uint32

	// Way partitioning. wayLo/wayHi give the half-open way range each
	// kind may allocate into. Lookups always search all ways (CAT and
	// CDP restrict allocation, not hits).
	wayLo [numKinds]int
	wayHi [numKinds]int

	stats Stats
}

// New builds a cache. It panics on a degenerate geometry, which is a
// programming error in platform description.
func New(cfg Config) *Cache {
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || cfg.BlockBytes <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	sets := cfg.SizeBytes / (cfg.BlockBytes * cfg.Ways)
	if sets < 1 {
		sets = 1
	}
	lg2 := uint(0)
	for 1<<(lg2+1) <= cfg.BlockBytes {
		lg2++
	}
	n := sets * cfg.Ways
	c := &Cache{
		cfg:      cfg,
		sets:     sets,
		ways:     cfg.Ways,
		blockLg2: lg2,
		setMask:  uint64(sets - 1),
		pow2Sets: sets&(sets-1) == 0,
		tags:     make([]uint64, n),
		stamps:   make([]uint32, n),
		pf:       make([]uint64, (n+63)/64),
	}
	c.ClearPartition()
	return c
}

// Name returns the cache's configured name.
func (c *Cache) Name() string { return c.cfg.Name }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// checkPartition validates a CDP split of a cache with the given name
// and associativity; SetPartition and CheckCDP share it so both report
// the same error.
func checkPartition(name string, ways, dataWays, codeWays int) error {
	if dataWays < 1 || codeWays < 1 || dataWays+codeWays > ways {
		return fmt.Errorf("cache %s: invalid partition data=%d code=%d of %d ways",
			name, dataWays, codeWays, ways)
	}
	return nil
}

// checkWayLimit validates a CAT way limit, shared by SetWayLimit and
// CheckCAT.
func checkWayLimit(name string, ways, n int) error {
	if n < 1 || n > ways {
		return fmt.Errorf("cache %s: way limit %d outside [1,%d]", name, n, ways)
	}
	return nil
}

// SetPartition dedicates dataWays ways to data and codeWays ways to
// code (Intel CDP). The sum must not exceed the associativity.
func (c *Cache) SetPartition(dataWays, codeWays int) error {
	if err := checkPartition(c.cfg.Name, c.ways, dataWays, codeWays); err != nil {
		return err
	}
	c.wayLo[Data], c.wayHi[Data] = 0, dataWays
	c.wayLo[Code], c.wayHi[Code] = dataWays, dataWays+codeWays
	return nil
}

// SetWayLimit restricts both kinds to the first n ways (Intel CAT),
// used for the Fig 10 LLC-capacity sweep.
func (c *Cache) SetWayLimit(n int) error {
	if err := checkWayLimit(c.cfg.Name, c.ways, n); err != nil {
		return err
	}
	for k := Kind(0); k < numKinds; k++ {
		c.wayLo[k], c.wayHi[k] = 0, n
	}
	return nil
}

// ClearPartition restores the default shared-ways policy.
func (c *Cache) ClearPartition() {
	for k := Kind(0); k < numKinds; k++ {
		c.wayLo[k], c.wayHi[k] = 0, c.ways
	}
}

// locate returns the index of addr's set row in the line arrays and
// the tag+1 key a resident copy of addr carries.
func (c *Cache) locate(addr uint64) (base int, key uint64) {
	blk := addr >> c.blockLg2
	var set uint64
	if c.pow2Sets {
		set = blk & c.setMask
	} else {
		set = blk % uint64(c.sets)
	}
	return int(set) * c.ways, blk + 1
}

// find returns the line index holding key in the row at base, or -1.
func (c *Cache) find(base int, key uint64) int {
	for i, t := range c.tags[base : base+c.ways] {
		if t == key {
			return base + i
		}
	}
	return -1
}

func (c *Cache) prefetched(i int) bool { return c.pf[i>>6]&(1<<(uint(i)&63)) != 0 }

// Access performs a demand access, returning true on hit. On miss the
// line is installed in the LRU way of the kind's allowed range.
func (c *Cache) Access(addr uint64, kind Kind) bool {
	c.stats.Accesses[kind]++
	c.clock++
	base, key := c.locate(addr)
	if i := c.find(base, key); i >= 0 {
		if !c.cfg.BIP {
			c.stamps[i] = c.clock
		}
		if c.prefetched(i) {
			// First demand touch promotes a speculative line.
			c.pf[i>>6] &^= 1 << (uint(i) & 63)
			c.stamps[i] = c.clock
			c.stats.PrefetchHits++
		}
		return true
	}
	c.stats.Misses[kind]++
	c.install(base, key, kind, false, false)
	return false
}

// Probe reports whether addr is resident without updating LRU state or
// statistics.
func (c *Cache) Probe(addr uint64) bool {
	base, key := c.locate(addr)
	return c.find(base, key) >= 0
}

// Prefetch installs addr without counting a demand access. It returns
// false if the line was already resident (a useless prefetch).
func (c *Cache) Prefetch(addr uint64, kind Kind) bool {
	base, key := c.locate(addr)
	if c.find(base, key) >= 0 {
		return false
	}
	c.clock++
	c.install(base, key, kind, true, false)
	c.stats.PrefetchFills++
	return true
}

// InstallWarm installs addr at the MRU position regardless of policy,
// bypassing statistics. The simulator's functional warm-up uses it to
// seed steady-state resident sets.
func (c *Cache) InstallWarm(addr uint64, kind Kind) {
	base, key := c.locate(addr)
	if c.find(base, key) >= 0 {
		return
	}
	c.clock++
	c.install(base, key, kind, false, true)
}

// install places key in the set row at base: into the first invalid
// way of the kind's allowed range, else its least recently stamped
// way (the first one on a tie).
func (c *Cache) install(base int, key uint64, kind Kind, viaPrefetch, forceMRU bool) {
	lo, hi := base+c.wayLo[kind], base+c.wayHi[kind]
	tags := c.tags[lo:hi]
	stamps := c.stamps[lo:hi]
	v := 0
	for i, t := range tags {
		if t == 0 {
			v = i
			break
		}
		if stamps[i] < stamps[v] {
			v = i
		}
	}
	stamp := c.clock
	if c.cfg.BIP && viaPrefetch && !forceMRU && c.clock%32 != 0 {
		// LRU-position insertion: the speculative line is the set's
		// next victim unless a demand hit promotes it first.
		stamp = 1
	}
	tags[v] = key
	stamps[v] = stamp
	i := lo + v
	if viaPrefetch {
		c.pf[i>>6] |= 1 << (uint(i) & 63)
	} else {
		c.pf[i>>6] &^= 1 << (uint(i) & 63)
	}
}

// ScrambleAges assigns every valid line a uniformly random age and
// advances the clock past them. Functional warm-up installs lines all
// at once; scrambling reproduces the steady-state age distribution so
// short measurement windows observe the true eviction flux (the
// oldest tail being replaced at the insertion rate) instead of a
// freshly-installed population that never ages out.
func (c *Cache) ScrambleAges(rnd func(n int) int) {
	span := uint32(len(c.tags)) * 4
	if span < 1024 {
		span = 1024
	}
	for i, t := range c.tags {
		if t != 0 {
			c.stamps[i] = uint32(rnd(int(span))) + 1
		}
	}
	c.clock += span + 1
}

// Flush invalidates all lines (e.g. across a reboot) without touching
// statistics.
func (c *Cache) Flush() {
	clear(c.tags)
	clear(c.stamps)
	clear(c.pf)
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (lines stay warm), used at the end of
// a measurement warm-up.
func (c *Cache) ResetStats() { c.stats = Stats{} }
