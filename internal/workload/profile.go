// Package workload defines the seven production microservices of the
// paper (§2.1) as synthetic workload models. A Profile captures the
// externally observable characteristics the paper measures —
// instruction mix, code/data footprints and locality, request
// timescales, downstream blocking, context-switch behaviour, QoS
// ceilings — and a Stream turns a profile into the per-thread
// instruction/address stream that drives the cache, TLB and prefetch
// simulators.
//
// Calibration contract: profile parameters are tuned so the *measured*
// characterization (run through internal/sim) lands in the bands the
// paper reports (Table 2, Figs 2–12). Tests in this package and in
// internal/sim assert those bands; nothing asserts the outcomes µSKU
// is later expected to discover.
package workload

import (
	"fmt"

	"softsku/internal/rng"
	"softsku/internal/tlb"
)

// Tier describes one nested locality tier: Frac of random accesses
// fall uniformly within the first Bytes of the footprint.
type Tier struct {
	Frac  float64
	Bytes uint64
}

// InstructionMix is the Fig 5 breakdown. Fractions are normalized by
// Normalize; they need not sum to exactly 1 in literals.
type InstructionMix struct {
	Branch float64
	FP     float64
	Arith  float64
	Load   float64
	Store  float64
}

// Normalize scales the mix to sum to 1.
func (m InstructionMix) Normalize() InstructionMix {
	sum := m.Branch + m.FP + m.Arith + m.Load + m.Store
	if sum == 0 {
		return m
	}
	m.Branch /= sum
	m.FP /= sum
	m.Arith /= sum
	m.Load /= sum
	m.Store /= sum
	return m
}

// MemFrac returns the fraction of instructions that access data
// memory.
func (m InstructionMix) MemFrac() float64 {
	n := m.Normalize()
	return n.Load + n.Store
}

// Profile is the complete synthetic model of one microservice.
type Profile struct {
	Name     string
	Domain   string // service domain (web, feed, ads, cache)
	Platform string // default production platform (Table 1 placement)

	// ---- Request-level model (Table 2, Fig 2) ----
	PathLength float64 // instructions per query
	// RunningFrac is the fraction of a request's latency spent
	// executing instructions; the rest is blocked on downstream I/O
	// (Fig 2a). Leaves are ~1.0.
	RunningFrac float64
	// DownstreamCalls and DownstreamLatency describe blocking I/O to
	// other microservices per query.
	DownstreamCalls   int
	DownstreamLatency float64 // seconds, mean per call
	// WorkerThreads is the service's thread pool size per server. Web
	// oversubscribes aggressively (§2.3.2).
	WorkerThreads int
	// ConcurrentPaths marks Cache-style services whose queries follow
	// concurrent execution paths (excluded from Fig 2a, §2.3.2).
	ConcurrentPaths bool

	// ---- QoS (Fig 3) ----
	// MaxCPUUtil is the highest CPU utilization the service may run at
	// before QoS constraints are violated; load balancers modulate
	// offered load to hold it (§2.3.3).
	MaxCPUUtil float64
	// KernelFrac is the fraction of busy CPU time spent in
	// kernel/IO-wait at peak (Fig 3).
	KernelFrac float64
	// QoSLatencyP99 is the p99 request latency SLO in seconds.
	QoSLatencyP99 float64

	// ---- Context switching (Fig 4) ----
	// CtxSwitchRate is context switches per second per busy core at
	// peak load.
	CtxSwitchRate float64

	// ---- Instruction mix (Fig 5) ----
	Mix InstructionMix
	// BranchMispredict is mispredictions per branch instruction.
	BranchMispredict float64

	// ---- Memory behaviour (Figs 8–12) ----
	//
	// Locality is modelled with nested tiers: a Tier{Frac, Bytes} says
	// "Frac of the (random) accesses fall uniformly within the first
	// Bytes of the footprint". Hot ⊂ warm ⊂ footprint, so the hottest
	// bytes sit at the lowest offsets — which is also where operators
	// place SHP-backed slabs. The remainder fraction spreads over the
	// whole footprint (the cold tail).
	CodeFootprint uint64  // bytes of total instruction footprint
	CodeHot       Tier    // inner loop bodies (L1I-resident)
	CodeMid       Tier    // frequently-run functions (L2-resident)
	CodeWarm      Tier    // the steady-state fetch working set (LLC-resident)
	CodeSeqFrac   float64 // fraction of sequential next-line fetch
	CodePools     int     // distinct thread pools running distinct code (Cache: >1)
	// JITCode marks an anonymous (JIT) code cache, which — unlike
	// file-backed text — is THP-eligible (Web's HHVM code cache).
	JITCode bool

	DataFootprint uint64 // bytes of total (shared) data footprint
	DataHot       Tier   // per-request metadata, allocator headers (L1-resident)
	DataMid       Tier   // hot shared structures (L2-resident)
	DataWarm      Tier   // the LLC-contended shared working set
	// DataSeqFrac of data accesses walk strided streams (prefetchable,
	// page-local) of SeqStride bytes per access over the first SeqSpan
	// bytes of the footprint (model weights, ad lists, feature arrays).
	DataSeqFrac float64
	SeqStride   uint64
	SeqSpan     uint64
	// PrivateFrac of data accesses touch per-core private request
	// state of PrivateBytes per active core — the footprint component
	// that grows with core count and bends Fig 15's scaling curve.
	PrivateFrac  float64
	PrivateBytes uint64
	StackFrac    float64 // fraction of data accesses to the (hot) stack

	// SHPHeap is the size of the hot slab the service explicitly backs
	// with statically allocated huge pages (0 if the service never
	// calls the SHP APIs, like Ads1 — §4).
	SHPHeap uint64
	// HeapMadvise reports whether the service madvise(MADV_HUGEPAGE)s
	// its heap, making it huge under the default THP=madvise policy.
	HeapMadvise bool

	// Burstiness inflates instantaneous memory-system load relative to
	// average bandwidth (Ads1/Ads2 — §2.4.5).
	Burstiness float64

	// DepStallCPI is the baseline backend dependency-stall cycles per
	// instruction from non-memory hazards (long FP chains, div, etc.).
	DepStallCPI float64

	// BEOverlap is the exposed fraction of data-miss latency for this
	// workload (memory-level parallelism); 0 selects the model default.
	// Vector-crunching services overlap misses deeply (low values).
	BEOverlap float64

	// IntrospectivePerf marks services (Cache) whose code is
	// introspective of performance: they execute extra exception-
	// handler instructions when QoS degrades, making MIPS an invalid
	// throughput metric (§4, §7).
	IntrospectivePerf bool

	// RebootTolerant reports whether the surrounding infrastructure
	// tolerates µSKU rebooting live servers (§4: some services cannot).
	RebootTolerant bool
}

// String returns the service name.
func (p *Profile) String() string { return p.Name }

// AVXFrac returns the fraction of AVX-class (floating point/SIMD)
// instructions, which trips the platform power budget's frequency
// offset when heavy.
func (p *Profile) AVXFrac() float64 { return p.Mix.Normalize().FP }

// Validate checks internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile missing name")
	}
	if p.PathLength <= 0 {
		return fmt.Errorf("workload %s: non-positive path length", p.Name)
	}
	if p.RunningFrac <= 0 || p.RunningFrac > 1 {
		return fmt.Errorf("workload %s: RunningFrac %g outside (0,1]", p.Name, p.RunningFrac)
	}
	if p.MaxCPUUtil <= 0 || p.MaxCPUUtil > 1 {
		return fmt.Errorf("workload %s: MaxCPUUtil %g outside (0,1]", p.Name, p.MaxCPUUtil)
	}
	if p.CodeFootprint == 0 || p.DataFootprint == 0 {
		return fmt.Errorf("workload %s: zero footprint", p.Name)
	}
	if p.CodePools < 1 {
		return fmt.Errorf("workload %s: CodePools must be >= 1", p.Name)
	}
	if p.WorkerThreads < 1 {
		return fmt.Errorf("workload %s: no worker threads", p.Name)
	}
	for _, tc := range []struct {
		name           string
		hot, mid, warm Tier
		footprint      uint64
	}{
		{"code", p.CodeHot, p.CodeMid, p.CodeWarm, p.CodeFootprint},
		{"data", p.DataHot, p.DataMid, p.DataWarm, p.DataFootprint},
	} {
		sum := tc.hot.Frac + tc.mid.Frac + tc.warm.Frac
		if tc.hot.Frac < 0 || tc.mid.Frac < 0 || tc.warm.Frac < 0 || sum > 1 {
			return fmt.Errorf("workload %s: %s tier fractions invalid", p.Name, tc.name)
		}
		if !(tc.hot.Bytes <= tc.mid.Bytes && tc.mid.Bytes <= tc.warm.Bytes && tc.warm.Bytes <= tc.footprint) {
			return fmt.Errorf("workload %s: %s tiers must nest within the footprint", p.Name, tc.name)
		}
		if tc.hot.Bytes == 0 || tc.mid.Bytes == 0 || tc.warm.Bytes == 0 {
			return fmt.Errorf("workload %s: %s tier sizes must be positive", p.Name, tc.name)
		}
	}
	if p.SHPHeap > 0 && p.SHPHeap > p.DataFootprint {
		return fmt.Errorf("workload %s: SHP slab exceeds the data footprint", p.Name)
	}
	if p.DataSeqFrac > 0 {
		if p.SeqStride == 0 || p.SeqSpan == 0 || p.SeqSpan > p.DataFootprint {
			return fmt.Errorf("workload %s: sequential stream parameters invalid", p.Name)
		}
	}
	if p.PrivateFrac > 0 && p.PrivateBytes == 0 {
		return fmt.Errorf("workload %s: PrivateFrac without PrivateBytes", p.Name)
	}
	if p.StackFrac+p.PrivateFrac > 1 {
		return fmt.Errorf("workload %s: access-class fractions exceed 1", p.Name)
	}
	return nil
}

// Layout indices into the region slice built by BuildLayout, plus the
// page-permutation tables used to scatter hot pages (see MapCodeLine
// and MapDataOffset).
type Layout struct {
	Regions []tlb.Region
	Text    []int // one text region per code pool
	SHPHeap int   // -1 if absent
	Heap    int
	Stack   int

	// CodePerm scatters JIT code-cache pages; SlabPerm scatters SHP
	// slab pages. Both are uniform random permutations (seeded,
	// deterministic) so scattered pages spread evenly across cache
	// sets regardless of set count.
	CodePerm []uint32
	SlabPerm []uint32
}

// BuildLayout constructs the service's address-space regions and the
// page permutations its streams scatter JIT code and SHP slab pages
// with.
func (p *Profile) BuildLayout() Layout {
	l := p.BuildRegions()
	if p.JITCode {
		l.CodePerm = pagePerm(p.CodeFootprint, 0x5eed1)
	}
	if p.SHPHeap > 0 {
		l.SlabPerm = pagePerm(p.SHPHeap, 0x5eed2)
	}
	return l
}

// BuildRegions constructs the service's address-space regions only,
// leaving CodePerm and SlabPerm nil: what laying out and validating an
// address space needs, without the permutations' 4 bytes per page.
// Region bases are spaced far apart so regions never overlap
// regardless of size.
func (p *Profile) BuildRegions() Layout {
	var l Layout
	l.SHPHeap = -1
	base := uint64(1) << 32
	const spacing = uint64(1) << 40
	add := func(r tlb.Region) int {
		r.Base = base
		base += spacing
		l.Regions = append(l.Regions, r)
		return len(l.Regions) - 1
	}
	for i := 0; i < p.CodePools; i++ {
		l.Text = append(l.Text, add(tlb.Region{
			Name: fmt.Sprintf("text%d", i),
			Size: p.CodeFootprint,
			Code: true,
			Anon: p.JITCode,
			// THP never backs executable mappings, so a JIT code cache
			// is SHP-backed when the service uses static huge pages.
			SHP: p.JITCode && p.SHPHeap > 0,
		}))
	}
	if p.SHPHeap > 0 {
		l.SHPHeap = add(tlb.Region{Name: "shpheap", Size: p.SHPHeap, Anon: true, SHP: true})
	}
	heapSize := p.DataFootprint
	if p.SHPHeap > 0 && heapSize > p.SHPHeap {
		heapSize -= p.SHPHeap
	}
	l.Heap = add(tlb.Region{Name: "heap", Size: heapSize, Anon: true, Madvise: p.HeapMadvise})
	l.Stack = add(tlb.Region{Name: "stack", Size: 8 << 20, Anon: true})
	return l
}

// pagePerm returns a deterministic uniform permutation of the 4 KiB
// page indices covering size bytes (Fisher-Yates with a fixed seed).
func pagePerm(size uint64, seed uint64) []uint32 {
	n := int(size >> 12)
	if n < 2 {
		return nil
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	src := rng.New(seed)
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// SHPDemandChunks returns the number of 2 MiB static huge pages the
// service can productively consume: its SHP-backed code cache (JIT
// services) plus the explicit SHP heap slab. Reservations beyond this
// are wasted memory (Fig 18b's downslope).
func (p *Profile) SHPDemandChunks() int {
	if p.SHPHeap == 0 {
		return 0
	}
	chunks := func(b uint64) int { return int((b + (2 << 20) - 1) / (2 << 20)) }
	n := chunks(p.SHPHeap)
	if p.JITCode {
		n += chunks(p.CodeFootprint) * p.CodePools
	}
	return n
}
