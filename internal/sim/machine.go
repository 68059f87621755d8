// Package sim binds the substrates into a server simulator: a
// platform.Server runs one workload.Profile, its synthetic streams
// drive the cache/TLB/prefetch models, and a bandwidth↔latency fixed
// point yields the operating point (IPC, MIPS, top-down breakdown,
// memory bandwidth) that the characterization figures and µSKU's A/B
// tests observe. A discrete-event request simulator (service.go)
// layers request latency, queueing, and context-switch behaviour on
// top.
package sim

import (
	"fmt"

	"softsku/internal/cache"
	"softsku/internal/cpu"
	"softsku/internal/knob"
	"softsku/internal/mem"
	"softsku/internal/platform"
	"softsku/internal/prefetch"
	"softsku/internal/rng"
	"softsku/internal/tlb"
	"softsku/internal/workload"
)

const (
	// simThreads is how many representative worker threads drive the
	// shared hierarchy; the LLC is scaled by simThreads/activeCores to
	// preserve per-thread capacity pressure (see cache.NewHierarchySized).
	simThreads = 4

	// Measurement window sizes, instructions per simulated thread.
	warmupInstr  = 200_000
	measureInstr = 600_000

	// ctxSwitchCostSec is the direct (register/scheduler) cost of one
	// context switch. Prior work brackets total cost between ~1 µs and
	// ~12 µs; the indirect (cache pollution) part is emergent from
	// pool switching, so only the direct part is charged here.
	ctxSwitchCostSec = 2e-6

	// shpPressureMissPerMiB converts reserved-but-unused SHP memory
	// into extra cold data misses per instruction: memory lost to an
	// unusable reservation shrinks what the service (and page cache)
	// can keep resident. See DESIGN.md's substitution table.
	shpPressureMissPerMiB = 1e-6
)

// Machine simulates one server of a SKU running one microservice under
// a given soft-SKU configuration. It holds only the validated inputs
// and the address space; the page layout, cache hierarchy, TLBs,
// prefetch engines and streams a window drives are built by measure,
// on a characterization-cache miss, and released once it returns.
type Machine struct {
	srv    *platform.Server
	prof   *workload.Profile
	seed   uint64
	space  *tlb.AddressSpace
	memMod *mem.Model

	nthreads int
	catWays  int          // CAT way limit applied via SetCAT; 0 = unlimited
	rates    *WindowRates // cached characterization, nil until measured
}

// window is the model state of one characterization window. measure
// builds it fresh, so every window starts from the same cold state no
// matter what the machine measured before.
type window struct {
	m      *Machine
	layout workload.Layout
	hier   *cache.Hierarchy
	tlbs   []*tlb.TLB
	pfs    []*prefetch.Engine
	thr    []*workload.Stream
	// pages is the flattened page resolver for runWindow's hot loop.
	pages tlb.Resolver
	// tally[level][0] counts data loads satisfied at level, [1] stores.
	tally [4][2]uint64
}

// WindowRates are per-instruction event rates measured over one
// window, the inputs to the cycle model's fixed point.
type WindowRates struct {
	Instructions uint64
	Counts       cpu.Counts // absolute counts over the window

	// Per-instruction DRAM line traffic.
	DemandMemPerInstr   float64 // demand LLC misses
	PrefetchMemPerInstr float64 // prefetch fills from DRAM

	CtxSwitches uint64

	// Raw model stats for MPKI reporting.
	Cache cache.LevelStats
	TLB   tlb.Stats
	PF    prefetch.Stats
}

// NewMachine builds the simulator for a server/profile pair. The
// profile should already be platform-adjusted (workload.ForPlatform).
// It validates the profile, lays out the address space and checks the
// CDP partition against the SKU's LLC, but allocates no window state.
func NewMachine(srv *platform.Server, prof *workload.Profile, seed uint64) (*Machine, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	cfg := srv.Config()
	sku := srv.SKU()

	m := &Machine{srv: srv, prof: prof, seed: seed, memMod: mem.NewModel(sku)}
	space, err := tlb.NewAddressSpace(prof.BuildRegions().Regions, cfg.THP, cfg.SHPCount)
	if err != nil {
		return nil, err
	}
	m.space = space
	m.nthreads = WindowThreads(cfg.Cores)
	if cfg.CDP.Enabled() {
		if err := cache.CheckCDP(sku, cfg.CDP.DataWays, cfg.CDP.CodeWays); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Server returns the underlying server.
func (m *Machine) Server() *platform.Server { return m.srv }

// Profile returns the workload.
func (m *Machine) Profile() *workload.Profile { return m.prof }

// SetCAT limits the LLC to n ways (the Fig 10 capacity sweep) and
// invalidates the cached characterization. The next window runs on
// fresh state with the limit applied.
func (m *Machine) SetCAT(n int) error {
	if err := cache.CheckCAT(m.srv.SKU(), n); err != nil {
		return err
	}
	m.catWays = n
	m.rates = nil
	return nil
}

// newWindow builds the cold model state for one window: the shared
// hierarchy with the machine's CDP split and CAT limit applied, and
// per simulated thread a TLB, a prefetch engine and an address stream.
func (m *Machine) newWindow() *window {
	cfg := m.srv.Config()
	sku := m.srv.SKU()
	w := &window{m: m, layout: m.prof.BuildLayout(), pages: m.space.Resolver()}
	// The simulated threads share the full LLC: service data is shared
	// across cores (one heap), so per-core LLC slicing would be wrong.
	// The footprint component that *does* grow with active cores —
	// per-request private state — is instead scaled into each sim
	// thread's private span (workload.NewStream's coreScale).
	totalLLC := sku.LLC * sku.Sockets
	w.hier = cache.NewHierarchySized(sku, m.nthreads, totalLLC)
	// NewMachine and SetCAT validated both settings against this SKU.
	if cfg.CDP.Enabled() {
		if err := w.hier.ApplyCDP(cfg.CDP.DataWays, cfg.CDP.CodeWays); err != nil {
			panic(err)
		}
	}
	if m.catWays > 0 {
		if err := w.hier.ApplyCAT(m.catWays); err != nil {
			panic(err)
		}
	}

	geom := tlb.Geometry{
		ITLB4K: sku.ITLB4K, ITLB2M: sku.ITLB2M,
		DTLB4K: sku.DTLB4K, DTLB2M: sku.DTLB2M,
		STLB: sku.STLB,
	}
	coreScale := float64(cfg.Cores) / float64(m.nthreads)
	for i := 0; i < m.nthreads; i++ {
		w.tlbs = append(w.tlbs, tlb.New(geom))
		w.pfs = append(w.pfs, prefetch.NewEngine(w.hier, i, cfg.Prefetch))
		w.thr = append(w.thr, workload.NewStream(m.prof, w.layout,
			m.seed+uint64(i)*7919, i, coreScale))
	}
	return w
}

// prefill functionally warms the hierarchy with the steady-state
// resident working set. Measurement windows are far too short to warm
// multi-MiB tiers through sampled accesses alone (the classic
// sampled-simulation cold-start problem, cf. the paper's own warm-up
// discard, §4); installing the tiers directly — coldest first, so LRU
// ends up ordered by heat — lets short windows observe steady-state
// hit rates. The subsequent instruction warm-up settles TLBs and LRU.
func (w *window) prefill() {
	m := w.m
	prof := m.prof
	installData := func(c *cache.Cache, lo, hi uint64) {
		workload.ForEachDataLine(prof, w.layout, lo, hi, func(addr uint64) {
			c.InstallWarm(addr, cache.Data)
		})
	}
	installCode := func(c *cache.Cache, pool int, bytes uint64) {
		workload.ForEachCodeLine(prof, w.layout, pool, bytes/64, func(addr uint64) {
			c.InstallWarm(addr, cache.Code)
		})
	}
	cfg := m.srv.Config()
	coreScale := float64(cfg.Cores) / float64(m.nthreads)
	llc := w.hier.LLCs
	llcBytes := uint64(m.srv.SKU().LLC * m.srv.SKU().Sockets)
	capSpan := func(b uint64) uint64 {
		if b > llcBytes {
			return llcBytes
		}
		return b
	}
	// Coldest first: the sequential-stream span (pure churn), then
	// private spans, warm tiers, then mid and hot so they end up
	// most-recently-used.
	if prof.DataSeqFrac > 0 {
		installData(llc, 0, capSpan(prof.SeqSpan))
	}
	for ti := 0; ti < m.nthreads; ti++ {
		base, span := workload.PrivateSpan(prof, ti, coreScale)
		if span > 0 {
			installData(llc, base, base+span)
		}
	}
	installData(llc, 0, prof.DataWarm.Bytes)
	for pool := 0; pool < prof.CodePools; pool++ {
		installCode(llc, pool, prof.CodeWarm.Bytes)
	}
	installData(llc, 0, prof.DataMid.Bytes)
	installData(llc, 0, prof.DataHot.Bytes)
	for ti := 0; ti < m.nthreads; ti++ {
		pool := ti % prof.CodePools
		installCode(llc, pool, prof.CodeMid.Bytes)
		installCode(w.hier.L2s[ti], pool, prof.CodeMid.Bytes)
		installCode(w.hier.L1I[ti], pool, prof.CodeHot.Bytes)
		installData(w.hier.L2s[ti], 0, prof.DataMid.Bytes)
		installData(w.hier.L1D[ti], 0, prof.DataHot.Bytes)
	}
}

// Characterize returns the machine's window rates, measuring them if
// neither this machine nor the process-wide characterization cache has
// them yet. The cache key covers every input that reaches the window
// (see charKey), so a hit returns the exact rates a fresh measurement
// would produce; SetCharacterizationCache(false) forces the
// measurement path.
func (m *Machine) Characterize() *WindowRates {
	if m.rates != nil {
		return m.rates
	}
	if CharacterizationCacheEnabled() {
		key := charKey(m.srv.SKU(), m.prof, m.srv.Config(), m.catWays, m.seed)
		m.rates = charcache.getOrMeasure(key, m.measure)
	} else {
		m.rates = m.measure()
	}
	return m.rates
}

// measure runs one characterization measurement window on fresh model
// state: functional prefill, instruction warm-up, stat reset, then a
// measured window per thread, interleaved in chunks so threads
// genuinely contend for the shared LLC. The state is dropped on
// return; only the rates outlive the window.
func (m *Machine) measure() *WindowRates {
	mSimWindows.Inc()
	w := m.newWindow()
	w.prefill()
	ager := rng.New(m.seed ^ 0xa6e5)
	w.hier.LLCs.ScrambleAges(ager.Intn)
	w.runWindow(warmupInstr)
	w.resetStats()
	switches := w.runWindow(measureInstr)

	instr := uint64(measureInstr) * uint64(m.nthreads)
	r := &WindowRates{
		Instructions: instr,
		CtxSwitches:  switches,
		Cache:        w.hier.Stats(),
	}
	for _, t := range w.tlbs {
		s := t.Stats()
		r.TLB.Fetches += s.Fetches
		r.TLB.FetchMisses += s.FetchMisses
		r.TLB.Loads += s.Loads
		r.TLB.LoadMisses += s.LoadMisses
		r.TLB.Stores += s.Stores
		r.TLB.StoreMisses += s.StoreMisses
		r.TLB.WalkCycles += s.WalkCycles
	}
	for _, p := range w.pfs {
		s := p.Stats()
		r.PF.Issued += s.Issued
		r.PF.Moved += s.Moved
		r.PF.FromMemory += s.FromMemory
	}

	mix := m.prof.Mix.Normalize()
	c := &r.Counts
	c.Instructions = instr
	c.Branches = uint64(float64(instr) * mix.Branch)
	c.Mispredicts = uint64(float64(c.Branches) * m.prof.BranchMispredict)

	// Accesses satisfied at each level: L1 misses that hit L2, etc.
	cs := r.Cache
	c.CodeL2 = cs.L2.Accesses[cache.Code] - cs.L2.Misses[cache.Code]
	c.CodeLLC = cs.LLC.Accesses[cache.Code] - cs.LLC.Misses[cache.Code]
	c.CodeMem = cs.LLC.Misses[cache.Code]
	c.DataL2 = w.tally[cache.L2][0]
	c.DataLLC = w.tally[cache.LLC][0]
	c.DataMem = w.tally[cache.Memory][0]
	c.StoreL2 = w.tally[cache.L2][1]
	c.StoreLLC = w.tally[cache.LLC][1]
	c.StoreMem = w.tally[cache.Memory][1]

	// Split walk cycles by origin using miss counts.
	iw := r.TLB.FetchMisses
	dw := r.TLB.LoadMisses + r.TLB.StoreMisses
	if iw+dw > 0 {
		c.ITLBWalkCycles = r.TLB.WalkCycles * iw / (iw + dw)
		c.DTLBWalkCycles = r.TLB.WalkCycles - c.ITLBWalkCycles
	}

	// SHP over-reservation pressure: wasted MiB become cold misses.
	wasted := float64(m.space.WastedSHPMiB())
	extra := uint64(float64(instr) * wasted * shpPressureMissPerMiB)
	c.DataMem += extra

	r.DemandMemPerInstr = float64(cs.LLC.TotalMisses()+extra) / float64(instr)
	r.PrefetchMemPerInstr = float64(r.PF.FromMemory) / float64(instr)

	return r
}

// runWindow advances every thread by instrPerThread instructions in
// interleaved chunks, returning the number of context switches
// injected.
func (w *window) runWindow(instrPerThread int) uint64 {
	m := w.m
	cfg := m.srv.Config()
	// Context-switch interval in instructions, from the profile's
	// per-core switch rate at this core frequency (IPC≈1 estimate; the
	// induced error is second-order). ctxSwitchInterval clamps to ≥1,
	// so an extreme switch rate means a switch every chunk instead of
	// the divide-by-zero interval==0 used to cause below.
	interval := ctxSwitchInterval(cfg.CoreFreqMHz, m.prof.CtxSwitchRate)
	var switches uint64
	const chunk = 2000
	buf := make([]workload.Access, 0, chunk*2)
	hier, pages, tally := w.hier, &w.pages, &w.tally
	for done := 0; done < instrPerThread; done += chunk {
		n := chunk
		if instrPerThread-done < n {
			n = instrPerThread - done
		}
		switchNow := done/interval != (done+n)/interval
		for ti := range w.thr {
			buf = w.thr[ti].Generate(buf[:0], n)
			t := w.tlbs[ti]
			pf := w.pfs[ti]
			for i := range buf {
				a := &buf[i]
				lvl := hier.Access(ti, a.Addr, a.Kind)
				if a.Kind == cache.Data {
					st := 0
					if a.Type == tlb.Store {
						st = 1
					}
					tally[lvl][st]++
				}
				page, huge := pages.PageOf(int(a.Region), a.Addr)
				t.Access(page, huge, a.Type)
				pf.OnAccess(a.Addr, a.Kind, a.IP, lvl)
			}
			if switchNow {
				w.thr[ti].SwitchPool()
				switches++
			}
		}
	}
	return switches
}

func (w *window) resetStats() {
	w.tally = [4][2]uint64{}
	w.hier.ResetStats()
	for i := range w.tlbs {
		w.tlbs[i].ResetStats()
		w.pfs[i].ResetStats()
	}
}

// Operating is the steady-state operating point of the machine at a
// given CPU utilization: the quantities EMON-style sampling observes.
type Operating struct {
	Util float64

	IPC      float64 // per hardware thread
	SMTBoost float64
	CoreIPS  float64 // per core, SMT-boosted, at effective frequency
	TotalIPS float64 // machine-wide, utilization-scaled
	MIPS     float64 // TotalIPS / 1e6 — µSKU's throughput metric
	QPS      float64 // TotalIPS / path length

	EffCoreMHz   float64
	MemBWGBs     float64 // achieved DRAM bandwidth
	MemLatencyNS float64 // average loaded memory latency
	Watts        float64 // estimated platform power (§7 extension)
	MIPSPerWatt  float64 // energy efficiency of the operating point
	TopDown      cpu.TopDown

	Rates *WindowRates
}

// Solve finds the operating point at the given utilization by solving
// the bandwidth↔latency fixed point: memory latency depends on
// bandwidth, which depends on achieved IPS, which depends on memory
// latency. Saturation-bound services (Web on Broadwell) settle where
// the latency curve's knee caps throughput — the mechanism behind
// Figs 16(b) and 17.
func (m *Machine) Solve(util float64) Operating {
	return solveRates(m.srv.SKU(), m.prof, m.srv.Config(), m.memMod, m.Characterize(), util)
}

// SolveRates computes the operating point implied by explicit window
// rates for a SKU/profile/config triple at the given utilization. It is
// the exact algebra Machine.Solve runs on its own characterization —
// extracted so the analytical twin (internal/twin) can price *predicted*
// rates through the identical cycle-accounting and queueing fixed
// point: any twin-vs-simulator divergence then comes from the predicted
// counts alone, never from a drifting copy of this model.
func SolveRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, r *WindowRates, util float64) Operating {
	return solveRates(sku, prof, cfg, mem.NewModel(sku), r, util)
}

func solveRates(sku *platform.SKU, prof *workload.Profile, cfg knob.Config, memMod *mem.Model, r *WindowRates, util float64) Operating {
	if util <= 0 {
		util = 1e-3
	}
	if util > 1 {
		util = 1
	}
	effMHz := sku.EffectiveCoreMHz(cfg, prof.AVXFrac())
	uncore := sku.UncoreScale(cfg)
	ghz := float64(effMHz) / 1000

	counts := r.Counts
	counts.CtxSwitchCycles = uint64(float64(r.CtxSwitches) * ctxSwitchCostSec * float64(effMHz) * 1e6)

	linesPerInstr := r.DemandMemPerInstr + r.PrefetchMemPerInstr
	var res cpu.Result
	var latNS float64
	// achieved(x) is the machine-wide IPS the cycle model delivers when
	// memory latency is priced at the bandwidth x·lines·64 implies. It
	// is monotone non-increasing in x, so the fixed point
	// achieved(IPS) = IPS is unique; bisection is robust even on the
	// steep saturated part of the latency curve where plain iteration
	// oscillates.
	achieved := func(ips float64) float64 {
		bw := ips * linesPerInstr * 64 / 1e9
		latNS = memMod.LatencyNS(bw, prof.Burstiness, uncore)
		p := cpu.Params{
			Width:         sku.DispatchWidth,
			L2LatCycles:   sku.L2LatencyNS * ghz,
			LLCLatCycles:  sku.LLCLatencyNS * (0.45 + 0.55*uncore) * ghz,
			MemLatCycles:  latNS * ghz,
			MispredictPen: 15,
			DepStallCPI:   prof.DepStallCPI,
			BEOverlap:     prof.BEOverlap,
			SMT:           sku.SMT > 1,
		}
		res = cpu.Analyze(counts, p)
		return res.CoreIPS(effMHz) * float64(cfg.Cores) * util
	}
	lo := 0.0
	hi := float64(sku.DispatchWidth) * 1.4 * float64(effMHz) * 1e6 * float64(cfg.Cores)
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if achieved(mid) > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	totalIPS := achieved((lo + hi) / 2)
	bw := totalIPS * linesPerInstr * 64 / 1e9
	latNS = memMod.LatencyNS(bw, prof.Burstiness, uncore)
	watts := sku.PowerWatts(cfg, effMHz, util, memMod.AchievedGBs(bw))
	return Operating{
		Util:         util,
		IPC:          res.IPC,
		SMTBoost:     res.SMTBoost,
		CoreIPS:      res.CoreIPS(effMHz),
		TotalIPS:     totalIPS,
		MIPS:         totalIPS / 1e6,
		QPS:          totalIPS / prof.PathLength,
		EffCoreMHz:   float64(effMHz),
		MemBWGBs:     memMod.AchievedGBs(bw),
		MemLatencyNS: latNS,
		Watts:        watts,
		MIPSPerWatt:  totalIPS / 1e6 / watts,
		TopDown:      res.TopDown,
		Rates:        r,
	}
}

// WindowInstructions returns the instruction count one characterization
// window measures on a machine with the given active core count — the
// denominator the analytical twin's predicted counts must share with
// measure() for per-instruction rates to line up.
func WindowInstructions(cores int) uint64 {
	n := simThreads
	if cores < n {
		n = cores
	}
	return uint64(measureInstr) * uint64(n)
}

// WindowThreads returns the number of representative worker threads a
// characterization window runs for the given active core count.
func WindowThreads(cores int) int {
	n := simThreads
	if cores < n {
		n = cores
	}
	return n
}

// PredictCtxSwitches replays runWindow's chunk-boundary arithmetic over
// one measurement window without executing it: the number of context
// switches a window at this core frequency and per-core switch rate
// will inject. Exact, including the interval clamping and chunk
// quantization.
func PredictCtxSwitches(cores int, coreFreqMHz int, ratePerSec float64) uint64 {
	interval := ctxSwitchInterval(coreFreqMHz, ratePerSec)
	nthreads := WindowThreads(cores)
	var switches uint64
	const chunk = 2000
	for done := 0; done < measureInstr; done += chunk {
		n := chunk
		if measureInstr-done < n {
			n = measureInstr - done
		}
		if done/interval != (done+n)/interval {
			switches += uint64(nthreads)
		}
	}
	return switches
}

// SHPPressureMissPerMiB exposes the reserved-but-unused SHP memory
// pressure constant so the analytical twin charges over-reservation
// identically to measure().
const SHPPressureMissPerMiB = shpPressureMissPerMiB

// SolvePeak returns the operating point at the service's QoS-derived
// utilization ceiling (Fig 3's peak load).
func (m *Machine) SolvePeak() Operating { return m.Solve(m.prof.MaxCPUUtil) }

// MPKI helpers over the characterization window.

// CacheMPKI returns code and data MPKI at the given level.
func (r *WindowRates) CacheMPKI(level cache.Level) (code, data float64) {
	var s cache.Stats
	switch level {
	case cache.L1:
		// L1I and L1D are reported jointly: code from L1I, data from L1D.
		return r.Cache.L1I.MPKI(cache.Code, r.Instructions),
			r.Cache.L1D.MPKI(cache.Data, r.Instructions)
	case cache.L2:
		s = r.Cache.L2
	case cache.LLC:
		s = r.Cache.LLC
	default:
		return 0, 0
	}
	return s.MPKI(cache.Code, r.Instructions), s.MPKI(cache.Data, r.Instructions)
}

// TLBMPKI returns ITLB, DTLB-load, and DTLB-store MPKI.
func (r *WindowRates) TLBMPKI() (itlb, dload, dstore float64) {
	return r.TLB.MPKI(tlb.Fetch, r.Instructions),
		r.TLB.MPKI(tlb.Load, r.Instructions),
		r.TLB.MPKI(tlb.Store, r.Instructions)
}

// String summarizes the operating point.
func (o Operating) String() string {
	return fmt.Sprintf("util=%.0f%% IPC=%.2f MIPS=%.0f QPS=%.0f bw=%.1fGB/s lat=%.0fns",
		o.Util*100, o.IPC, o.MIPS, o.QPS, o.MemBWGBs, o.MemLatencyNS)
}
