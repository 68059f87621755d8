package sim

import (
	"math"
	"testing"

	"softsku/internal/cache"
	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/workload"
)

// machineFor builds a production-configured machine, with an optional
// config modifier.
func machineFor(t testing.TB, svc, plat string, mod func(knob.Config) knob.Config) *Machine {
	t.Helper()
	base, err := workload.ByName(svc)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.ForPlatform(base, plat)
	sku, err := platform.ByName(plat)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProductionConfig(sku, prof)
	if mod != nil {
		cfg = mod(cfg)
	}
	srv, err := platform.NewServer(sku, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(srv, prof, 1234)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func peakMIPS(t testing.TB, svc, plat string, mod func(knob.Config) knob.Config) float64 {
	return machineFor(t, svc, plat, mod).SolvePeak().MIPS
}

// TestCharacterizationBands pins the measured §2 characterization to
// the paper's reported bands (tolerances documented in EXPERIMENTS.md).
func TestCharacterizationBands(t *testing.T) {
	type band struct{ lo, hi float64 }
	cases := map[string]struct {
		ipc              band
		l1iCode, llcCode band
		llcData          band
		frontEnd         band // TMAM slot fraction
		bwGBs            band
	}{
		"Web":    {ipc: band{0.4, 0.8}, l1iCode: band{30, 80}, llcCode: band{1.0, 3.0}, llcData: band{3, 9}, frontEnd: band{0.25, 0.45}, bwGBs: band{30, 75}},
		"Feed1":  {ipc: band{0.9, 1.7}, l1iCode: band{2, 20}, llcCode: band{0, 0.3}, llcData: band{6, 14}, frontEnd: band{0, 0.12}, bwGBs: band{35, 75}},
		"Feed2":  {ipc: band{0.5, 1.1}, l1iCode: band{20, 60}, llcCode: band{0, 1.0}, llcData: band{2, 8}, frontEnd: band{0.1, 0.3}, bwGBs: band{10, 45}},
		"Ads1":   {ipc: band{0.5, 1.1}, l1iCode: band{20, 60}, llcCode: band{0, 1.0}, llcData: band{2, 9}, frontEnd: band{0.08, 0.3}, bwGBs: band{8, 50}},
		"Ads2":   {ipc: band{0.5, 1.2}, l1iCode: band{15, 50}, llcCode: band{0, 1.0}, llcData: band{2, 9}, frontEnd: band{0.08, 0.3}, bwGBs: band{60, 130}},
		"Cache1": {ipc: band{0.3, 1.1}, l1iCode: band{70, 140}, llcCode: band{0, 3}, llcData: band{2, 9}, frontEnd: band{0.22, 0.5}, bwGBs: band{15, 70}},
		"Cache2": {ipc: band{0.3, 1.1}, l1iCode: band{70, 140}, llcCode: band{0, 3}, llcData: band{2, 9}, frontEnd: band{0.22, 0.5}, bwGBs: band{5, 40}},
	}
	for name, want := range cases {
		prof, _ := workload.ByName(name)
		op := machineFor(t, name, prof.Platform, nil).SolvePeak()
		check := func(metric string, got float64, b band) {
			if got < b.lo || got > b.hi {
				t.Errorf("%s %s = %.3g outside [%g, %g]", name, metric, got, b.lo, b.hi)
			}
		}
		check("IPC", op.IPC, want.ipc)
		l1c, _ := op.Rates.CacheMPKI(cache.L1)
		check("L1I code MPKI", l1c, want.l1iCode)
		llcc, llcd := op.Rates.CacheMPKI(cache.LLC)
		check("LLC code MPKI", llcc, want.llcCode)
		check("LLC data MPKI", llcd, want.llcData)
		check("front-end fraction", op.TopDown.FrontEnd, want.frontEnd)
		check("memory bandwidth", op.MemBWGBs, want.bwGBs)
	}
}

// TestCharacterizationDiversity asserts the cross-service orderings
// the paper's Fig 1 leans on.
func TestCharacterizationDiversity(t *testing.T) {
	ops := map[string]Operating{}
	for _, name := range []string{"Web", "Feed1", "Cache1", "Cache2"} {
		prof, _ := workload.ByName(name)
		ops[name] = machineFor(t, name, prof.Platform, nil).SolvePeak()
	}
	// Web's LLC code misses dwarf Feed1's (Fig 9): "it is unusual for
	// applications to incur non-negligible LLC instruction misses".
	webC, _ := ops["Web"].Rates.CacheMPKI(cache.LLC)
	feedC, _ := ops["Feed1"].Rates.CacheMPKI(cache.LLC)
	if webC < 10*feedC {
		t.Errorf("Web LLC code MPKI %.2f should dwarf Feed1's %.2f", webC, feedC)
	}
	// Cache's L1I misses dwarf Feed1's (Fig 8).
	c1, _ := ops["Cache1"].Rates.CacheMPKI(cache.L1)
	f1, _ := ops["Feed1"].Rates.CacheMPKI(cache.L1)
	if c1 < 4*f1 {
		t.Errorf("Cache1 L1I MPKI %.1f should dwarf Feed1's %.1f", c1, f1)
	}
	// Web ITLB misses dwarf everyone's (Fig 11).
	webITLB, _, _ := ops["Web"].Rates.TLBMPKI()
	feedITLB, _, _ := ops["Feed1"].Rates.TLBMPKI()
	if webITLB < 5*feedITLB {
		t.Errorf("Web ITLB MPKI %.2f vs Feed1 %.2f", webITLB, feedITLB)
	}
	// Feed1 retires the most; Web and Cache are stall-bound (Fig 7).
	if ops["Feed1"].TopDown.Retiring < ops["Web"].TopDown.Retiring {
		t.Error("Feed1 must retire a larger slot fraction than Web")
	}
}

// TestSolveDeterminism: identical machines yield identical operating
// points.
func TestSolveDeterminism(t *testing.T) {
	a := machineFor(t, "Feed2", "Skylake18", nil).SolvePeak()
	b := machineFor(t, "Feed2", "Skylake18", nil).SolvePeak()
	if a.MIPS != b.MIPS || a.IPC != b.IPC || a.MemBWGBs != b.MemBWGBs {
		t.Fatalf("non-deterministic solve: %v vs %v", a, b)
	}
}

// TestFrequencyShape: Fig 14(a) — steep gains to ~1.9 GHz, diminishing
// after, for all three µSKU targets.
func TestFrequencyShape(t *testing.T) {
	for _, tc := range []struct{ svc, plat string }{
		{"Web", "Skylake18"}, {"Web", "Broadwell16"}, {"Ads1", "Skylake18"},
	} {
		at := func(mhz int) float64 {
			return peakMIPS(t, tc.svc, tc.plat, func(c knob.Config) knob.Config {
				return c.With(knob.CoreFreq, knob.IntSetting("f", mhz))
			})
		}
		m16, m19, m22 := at(1600), at(1900), at(2200)
		if !(m16 < m19 && m19 < m22) {
			t.Errorf("%s(%s): frequency scaling not monotone: %.0f %.0f %.0f",
				tc.svc, tc.plat, m16, m19, m22)
		}
		// Diminishing returns per MHz (Fig 14a's bend).
		lowSlope := (m19 - m16) / 300
		highSlope := (m22 - m19) / 300
		if highSlope >= lowSlope {
			t.Errorf("%s(%s): no diminishing returns: %.3g vs %.3g",
				tc.svc, tc.plat, lowSlope, highSlope)
		}
	}
}

// TestUncoreShape: Fig 14(b) — maximum uncore frequency wins.
func TestUncoreShape(t *testing.T) {
	for _, svc := range []string{"Web", "Ads1"} {
		at := func(mhz int) float64 {
			return peakMIPS(t, svc, "Skylake18", func(c knob.Config) knob.Config {
				return c.With(knob.UncoreFreq, knob.IntSetting("u", mhz))
			})
		}
		if !(at(1400) < at(1600) && at(1600) < at(1800)) {
			t.Errorf("%s: uncore frequency scaling not monotone", svc)
		}
	}
}

// TestCDPShapes: Fig 16 — Web(Skylake) wins with {6,5}, Ads1 with
// {9,2}, Web(Broadwell) gains nothing, and extreme partitions are
// catastrophic everywhere.
func TestCDPShapes(t *testing.T) {
	cdp := func(d, c int) func(knob.Config) knob.Config {
		return func(cfg knob.Config) knob.Config {
			return cfg.With(knob.CDP, knob.CDPSetting(knob.CDPConfig{DataWays: d, CodeWays: c}))
		}
	}
	webProd := peakMIPS(t, "Web", "Skylake18", nil)
	web65 := peakMIPS(t, "Web", "Skylake18", cdp(6, 5))
	if web65 <= webProd {
		t.Errorf("Web(Skylake) CDP {6,5} must beat production: %.0f vs %.0f", web65, webProd)
	}
	web92 := peakMIPS(t, "Web", "Skylake18", cdp(9, 2))
	if web92 >= webProd*0.95 {
		t.Errorf("Web(Skylake) CDP {9,2} must be clearly harmful: %.0f vs %.0f", web92, webProd)
	}
	ads1Prod := peakMIPS(t, "Ads1", "Skylake18", nil)
	ads192 := peakMIPS(t, "Ads1", "Skylake18", cdp(9, 2))
	if ads192 <= ads1Prod {
		t.Errorf("Ads1 CDP {9,2} must beat production: %.0f vs %.0f", ads192, ads1Prod)
	}
	bdwProd := peakMIPS(t, "Web", "Broadwell16", nil)
	bdw75 := peakMIPS(t, "Web", "Broadwell16", cdp(7, 5))
	if bdw75 > bdwProd*1.01 {
		t.Errorf("Web(Broadwell) CDP must not gain (bandwidth-saturated): %.0f vs %.0f", bdw75, bdwProd)
	}
}

// TestPrefetcherShapes: Fig 17 — disabling prefetchers wins only on
// bandwidth-starved Broadwell.
func TestPrefetcherShapes(t *testing.T) {
	off := func(c knob.Config) knob.Config {
		return c.With(knob.Prefetch, knob.PrefetchSetting(knob.PrefetchNone))
	}
	sklProd := peakMIPS(t, "Web", "Skylake18", nil)
	sklOff := peakMIPS(t, "Web", "Skylake18", off)
	if sklOff >= sklProd {
		t.Errorf("Web(Skylake) must prefer prefetchers on: off %.0f vs prod %.0f", sklOff, sklProd)
	}
	bdwProd := peakMIPS(t, "Web", "Broadwell16", nil)
	bdwOff := peakMIPS(t, "Web", "Broadwell16", off)
	if bdwOff <= bdwProd {
		t.Errorf("Web(Broadwell) must prefer prefetchers off: off %.0f vs prod %.0f", bdwOff, bdwProd)
	}
}

// TestTHPShapes: Fig 18(a) — always-on helps Web(Skylake) a few
// percent, not Ads1 or Web(Broadwell); never ≈ madvise for Web.
func TestTHPShapes(t *testing.T) {
	thp := func(m knob.THPMode) func(knob.Config) knob.Config {
		return func(c knob.Config) knob.Config { return c.With(knob.THP, knob.THPSetting(m)) }
	}
	webProd := peakMIPS(t, "Web", "Skylake18", nil)
	webAlways := peakMIPS(t, "Web", "Skylake18", thp(knob.THPAlways))
	gain := webAlways/webProd - 1
	if gain < 0.005 || gain > 0.06 {
		t.Errorf("Web(Skylake) THP always gain = %.2f%%, want ~1.9%%", gain*100)
	}
	webNever := peakMIPS(t, "Web", "Skylake18", thp(knob.THPNever))
	if math.Abs(webNever/webProd-1) > 0.01 {
		t.Errorf("Web THP never should match madvise (few allocations use the hint): %+.2f%%",
			(webNever/webProd-1)*100)
	}
	ads1Prod := peakMIPS(t, "Ads1", "Skylake18", nil)
	ads1Always := peakMIPS(t, "Ads1", "Skylake18", thp(knob.THPAlways))
	if math.Abs(ads1Always/ads1Prod-1) > 0.01 {
		t.Errorf("Ads1 THP always should not move throughput: %+.2f%%",
			(ads1Always/ads1Prod-1)*100)
	}
}

// TestSHPShapes: Fig 18(b) — sweet spots at 300 (Skylake) and 400
// (Broadwell), beating the historical production reservations.
func TestSHPShapes(t *testing.T) {
	shp := func(n int) func(knob.Config) knob.Config {
		return func(c knob.Config) knob.Config { return c.With(knob.SHP, knob.IntSetting("n", n)) }
	}
	for _, tc := range []struct {
		plat  string
		sweet int
	}{
		{"Skylake18", 300}, {"Broadwell16", 400},
	} {
		best, bestN := 0.0, 0
		for n := 0; n <= 600; n += 100 {
			v := peakMIPS(t, "Web", tc.plat, shp(n))
			if v > best {
				best, bestN = v, n
			}
		}
		if bestN != tc.sweet {
			t.Errorf("Web(%s): SHP sweep peaks at %d, want %d", tc.plat, bestN, tc.sweet)
		}
	}
}

// TestAVXFrequencyCap: §6.1(1) — Ads1's AVX use caps it at 2.0 GHz.
func TestAVXFrequencyCap(t *testing.T) {
	op := machineFor(t, "Ads1", "Skylake18", nil).SolvePeak()
	if op.EffCoreMHz != 2000 {
		t.Fatalf("Ads1 effective frequency = %g MHz, want 2000", op.EffCoreMHz)
	}
	if web := machineFor(t, "Web", "Skylake18", nil).SolvePeak(); web.EffCoreMHz != 2200 {
		t.Fatalf("Web effective frequency = %g MHz, want 2200", web.EffCoreMHz)
	}
}

// TestCoreCountScaling: Fig 15 — near-linear at low counts, bending
// past ~8 cores.
func TestCoreCountScaling(t *testing.T) {
	at := func(n int) float64 {
		return peakMIPS(t, "Web", "Skylake18", func(c knob.Config) knob.Config {
			return c.With(knob.CoreCount, knob.IntSetting("n", n))
		})
	}
	m2, m8, m18 := at(2), at(8), at(18)
	lowEff := (m8 / m2) / 4.0    // vs ideal 4x
	highEff := (m18 / m8) / 2.25 // vs ideal 2.25x
	if lowEff < 0.85 {
		t.Errorf("2->8 cores should be near-linear, efficiency %.2f", lowEff)
	}
	if highEff >= lowEff {
		t.Errorf("8->18 cores must bend below low-count efficiency: %.2f vs %.2f", highEff, lowEff)
	}
}

// TestCATSweepKnee: Fig 10 — LLC MPKI falls with added ways and has
// flattened by 8 ways for Web.
func TestCATSweepKnee(t *testing.T) {
	m := machineFor(t, "Web", "Skylake18", nil)
	mpki := func(ways int) float64 {
		if err := m.SetCAT(ways); err != nil {
			t.Fatal(err)
		}
		r := m.Characterize()
		c, d := r.CacheMPKI(cache.LLC)
		return c + d
	}
	m2, m8, m11 := mpki(2), mpki(8), mpki(11)
	if !(m2 > m8 && m8 >= m11*0.9) {
		t.Errorf("CAT sweep not monotone-ish: 2w=%.1f 8w=%.1f 11w=%.1f", m2, m8, m11)
	}
	// Knee: most of the benefit arrives by 8 ways.
	if (m2 - m8) < 2*(m8-m11) {
		t.Errorf("knee should be at/before 8 ways: drop2-8=%.2f drop8-11=%.2f", m2-m8, m8-m11)
	}
}

// TestServiceSimBands: Fig 2–4 at the searched peak.
func TestServiceSimBands(t *testing.T) {
	peaks := map[string]PeakLoad{}
	for _, name := range []string{"Web", "Feed1", "Feed2", "Cache1"} {
		prof, _ := workload.ByName(name)
		peaks[name] = machineFor(t, name, prof.Platform, nil).FindPeak(7)
	}
	web := peaks["Web"].Result
	if web.RunFrac < 0.1 || web.RunFrac > 0.45 {
		t.Errorf("Web running fraction %.2f, paper ~0.28", web.RunFrac)
	}
	if web.QueueFrac+web.SchedFrac+web.IOFrac < 0.5 {
		t.Error("Web must be mostly blocked (Fig 2a)")
	}
	feed1 := peaks["Feed1"].Result
	if feed1.RunFrac < 0.9 {
		t.Errorf("Feed1 is a leaf: running %.2f, want >= 0.9", feed1.RunFrac)
	}
	feed2 := peaks["Feed2"].Result
	if feed2.RunFrac < 0.45 || feed2.RunFrac > 0.8 {
		t.Errorf("Feed2 running %.2f, paper ~0.62", feed2.RunFrac)
	}
	// Fig 3: utilization ceilings.
	if web.Util < 0.8 {
		t.Errorf("Web peak utilization %.2f, want high (~0.92)", web.Util)
	}
	c1 := peaks["Cache1"].Result
	if c1.Util > 0.5 {
		t.Errorf("Cache1 peak utilization %.2f, must stay low under QoS", c1.Util)
	}
	if c1.KernelUtil < 0.2*c1.Util {
		t.Errorf("Cache1 kernel share %.2f of %.2f too low (Fig 3)", c1.KernelUtil, c1.Util)
	}
	// Fig 4: Cache context-switches at least 10x Web's per-core rate.
	if c1.CtxSwitchRate < 10*web.CtxSwitchRate {
		t.Errorf("ctx switch rates: Cache1 %.0f vs Web %.0f", c1.CtxSwitchRate, web.CtxSwitchRate)
	}
	// Table 2: throughput and latency scales.
	if c1.QPS < 50_000 {
		t.Errorf("Cache1 QPS %.0f, want O(100K)", c1.QPS)
	}
	if lat := c1.Latency.Quantile(0.5); lat > 1e-3 {
		t.Errorf("Cache1 median latency %.2g s, want µs-scale", lat)
	}
	if lat := feed2.Latency.Quantile(0.5); lat < 0.1 {
		t.Errorf("Feed2 median latency %.2g s, want ~seconds-scale", lat)
	}
}

// TestServiceSimDeterminism: same seed, same result.
func TestServiceSimDeterminism(t *testing.T) {
	m := machineFor(t, "Feed1", "Skylake18", nil)
	op := m.SolvePeak()
	run := func() ServiceResult {
		s := NewServiceSim(m.Profile(), op, 18, 2, 42)
		return s.Run(1500, 2)
	}
	a, b := run(), run()
	if a.Completed != b.Completed || a.Util != b.Util || a.CtxSwitches != b.CtxSwitches {
		t.Fatalf("non-deterministic service sim: %+v vs %+v", a, b)
	}
}

// TestServiceSimOverload: offered load beyond capacity must saturate
// throughput, not crash or exceed capacity.
func TestServiceSimOverload(t *testing.T) {
	m := machineFor(t, "Feed1", "Skylake18", nil)
	op := m.SolvePeak()
	s := NewServiceSim(m.Profile(), op, 18, 2, 42)
	r := s.Run(50_000, 1) // far beyond Feed1's ~2000 QPS capacity
	if r.Util < 0.95 {
		t.Errorf("overload should saturate CPU: util %.2f", r.Util)
	}
	maxQPS := op.CoreIPS * 18 / m.Profile().PathLength * 1.1
	if r.QPS > maxQPS {
		t.Errorf("completed QPS %.0f exceeds capacity %.0f", r.QPS, maxQPS)
	}
}

// TestMachineRejectsInvalidConfig guards constructor validation, which
// must not wait for the first window: a bad profile, overlapping
// regions and an invalid CDP split all fail NewMachine, the last with
// the error the cache model itself reports.
func TestMachineRejectsInvalidConfig(t *testing.T) {
	sku := platform.Skylake18()
	srv, err := platform.NewServer(sku, sku.StockConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := workload.Web()
	bad.CodePools = 0
	if _, err := NewMachine(srv, bad, 1); err == nil {
		t.Fatal("invalid profile must be rejected")
	}
	// Regions are laid out 1 TiB apart, so a larger heap overlaps the
	// stack.
	huge := workload.Web()
	huge.DataFootprint = 3 << 40
	if _, err := NewMachine(srv, huge, 1); err == nil || err.Error() != `tlb: regions "heap" and "stack" overlap` {
		t.Errorf("overlapping regions: err = %v", err)
	}

	// The server validated a full-width CDP split; shrinking the SKU's
	// LLC afterwards makes the same split invalid for the hierarchy.
	small := *sku
	cfg := sku.StockConfig()
	cfg.CDP = knob.CDPConfig{DataWays: 6, CodeWays: 5}
	srvCDP, err := platform.NewServer(&small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	small.LLCWays = 10
	want := cache.NewHierarchy(&small, 1).ApplyCDP(6, 5)
	if want == nil {
		t.Fatal("fixture: 6+5 ways must not fit a 10-way LLC")
	}
	if _, err := NewMachine(srvCDP, workload.Web(), 1); err == nil || err.Error() != want.Error() {
		t.Errorf("invalid CDP split: err = %v, want %v", err, want)
	}
}

// TestWastedSHPPenalty: over-reserving SHPs costs throughput (Fig 18b
// downslope mechanism).
func TestWastedSHPPenalty(t *testing.T) {
	shp := func(n int) func(knob.Config) knob.Config {
		return func(c knob.Config) knob.Config { return c.With(knob.SHP, knob.IntSetting("n", n)) }
	}
	at300 := peakMIPS(t, "Web", "Skylake18", shp(300))
	at600 := peakMIPS(t, "Web", "Skylake18", shp(600))
	if at600 >= at300 {
		t.Errorf("600 SHPs (300 wasted) must underperform 300: %.0f vs %.0f", at600, at300)
	}
}

// TestEnergyOperatingPoint: the §7 extension exposes power and
// efficiency; lower frequency must improve MIPS/W for memory-bound Web
// even though it costs MIPS.
func TestEnergyOperatingPoint(t *testing.T) {
	at := func(mhz int) Operating {
		return machineFor(t, "Web", "Skylake18", func(c knob.Config) knob.Config {
			return c.With(knob.CoreFreq, knob.IntSetting("f", mhz))
		}).SolvePeak()
	}
	hi, lo := at(2200), at(1600)
	if hi.Watts <= lo.Watts {
		t.Fatalf("power must rise with frequency: %g vs %g", hi.Watts, lo.Watts)
	}
	if hi.MIPS <= lo.MIPS {
		t.Fatal("performance must rise with frequency")
	}
	if lo.MIPSPerWatt <= hi.MIPSPerWatt {
		t.Fatalf("memory-bound Web should be more efficient at 1.6 GHz: %.1f vs %.1f MIPS/W",
			lo.MIPSPerWatt, hi.MIPSPerWatt)
	}
}

// TestServiceSimLatencyRisesWithLoad: open-loop queueing — latency is
// monotone-ish in offered load and explodes near saturation.
func TestServiceSimLatencyRisesWithLoad(t *testing.T) {
	m := machineFor(t, "Feed1", "Skylake18", nil)
	op := m.SolvePeak()
	run := func(qps float64) ServiceResult {
		s := NewServiceSim(m.Profile(), op, 18, 2, 9)
		return s.Run(qps, 2)
	}
	low := run(500)
	mid := run(1500)
	if mid.Latency.Mean() < low.Latency.Mean() {
		t.Fatalf("latency must not fall with load: %g vs %g",
			mid.Latency.Mean(), low.Latency.Mean())
	}
	if mid.Util <= low.Util {
		t.Fatal("utilization must rise with load")
	}
}

// TestFindPeakRespectsQoS: a latency-tightened profile peaks at lower
// load than the stock profile.
func TestFindPeakRespectsQoS(t *testing.T) {
	m1 := machineFor(t, "Feed1", "Skylake18", nil)
	loose := m1.FindPeak(5)

	tight := *m1.Profile()
	tight.QoSLatencyP99 = tight.QoSLatencyP99 / 4
	sku := m1.Server().SKU()
	srv, err := platform.NewServer(sku, m1.Server().Config())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMachine(srv, &tight, 5)
	if err != nil {
		t.Fatal(err)
	}
	strict := m2.FindPeak(5)
	if strict.Feasible && strict.Result.Latency.Quantile(0.99) > tight.QoSLatencyP99 {
		t.Fatalf("feasible peak violated QoS: p99=%g limit=%g",
			strict.Result.Latency.Quantile(0.99), tight.QoSLatencyP99)
	}
	if strict.OfferedQPS > loose.OfferedQPS {
		t.Fatalf("tighter QoS cannot admit more load: %g vs %g",
			strict.OfferedQPS, loose.OfferedQPS)
	}
	if !loose.Feasible {
		t.Fatal("stock QoS must be attainable")
	}
	// An impossible SLO must be reported, not silently returned.
	impossible := *m1.Profile()
	impossible.QoSLatencyP99 = 1e-6
	srv2, err := platform.NewServer(sku, m1.Server().Config())
	if err != nil {
		t.Fatal(err)
	}
	m3, err := NewMachine(srv2, &impossible, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m3.FindPeak(5).Feasible {
		t.Fatal("microsecond SLO on a ms-scale service cannot be feasible")
	}
}

// TestCharacterizeCached: repeated characterization reuses the window.
func TestCharacterizeCached(t *testing.T) {
	m := machineFor(t, "Feed2", "Skylake18", nil)
	a := m.Characterize()
	b := m.Characterize()
	if a != b {
		t.Fatal("Characterize must return the cached rates pointer")
	}
	if err := m.SetCAT(8); err != nil {
		t.Fatal(err)
	}
	c := m.Characterize()
	if c == a {
		t.Fatal("SetCAT must invalidate the cached characterization")
	}
}

// TestSolveUtilClamp: degenerate utilizations are clamped, not fatal.
func TestSolveUtilClamp(t *testing.T) {
	m := machineFor(t, "Feed2", "Skylake18", nil)
	lo := m.Solve(-1)
	hi := m.Solve(5)
	if lo.MIPS <= 0 || hi.MIPS <= 0 {
		t.Fatal("clamped solves must still produce operating points")
	}
	if hi.Util != 1 {
		t.Fatalf("over-unity utilization must clamp to 1, got %g", hi.Util)
	}
}

// TestSPECRoundTrip is an end-to-end validation of the simulator: a
// profile derived from a SPEC benchmark's published counter row
// (workload.SPECProfile's inverse calibration) must, when run through
// the full machine, reproduce that row's MPKI profile — without any
// hand-tuning.
func TestSPECRoundTrip(t *testing.T) {
	sku := platform.Skylake20()
	within := func(got, want, absTol, relTol float64) bool {
		diff := math.Abs(got - want)
		return diff <= absTol || diff <= want*relTol
	}
	for _, ref := range workload.SPEC2006() {
		ref := ref
		prof := workload.SPECProfile(ref)
		srv, err := platform.NewServer(sku, ProductionConfig(sku, prof))
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMachine(srv, prof, 17)
		if err != nil {
			t.Fatal(err)
		}
		r := m.Characterize()
		l1c, l1d := r.CacheMPKI(cache.L1)
		llcc, llcd := r.CacheMPKI(cache.LLC)
		if !within(l1d, ref.L1DataMPKI, 4, 0.5) {
			t.Errorf("%s: L1 data MPKI %.1f vs published %.1f", ref.Name, l1d, ref.L1DataMPKI)
		}
		if !within(l1c, ref.L1CodeMPKI, 3, 0.6) {
			t.Errorf("%s: L1 code MPKI %.1f vs published %.1f", ref.Name, l1c, ref.L1CodeMPKI)
		}
		if !within(llcd, ref.LLCDataMPKI, 1.5, 0.5) {
			t.Errorf("%s: LLC data MPKI %.2f vs published %.2f", ref.Name, llcd, ref.LLCDataMPKI)
		}
		if !within(llcc, ref.LLCCodeMPKI, 0.5, 0.8) {
			t.Errorf("%s: LLC code MPKI %.2f vs published %.2f", ref.Name, llcc, ref.LLCCodeMPKI)
		}
	}
}

// TestSPECIPCOrdering: the simulated SPEC suite must order IPC the way
// the measurements do — cache-friendly hmmer/h264ref fast, mcf slow.
func TestSPECIPCOrdering(t *testing.T) {
	sku := platform.Skylake20()
	ipc := func(name string) float64 {
		for _, ref := range workload.SPEC2006() {
			if ref.Name != name {
				continue
			}
			prof := workload.SPECProfile(ref)
			srv, err := platform.NewServer(sku, ProductionConfig(sku, prof))
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMachine(srv, prof, 17)
			if err != nil {
				t.Fatal(err)
			}
			return m.Solve(1.0).IPC
		}
		t.Fatalf("no such benchmark %s", name)
		return 0
	}
	mcf := ipc("429.mcf")
	hmmer := ipc("456.hmmer")
	if hmmer < 2*mcf {
		t.Fatalf("hmmer IPC %.2f should dwarf mcf's %.2f", hmmer, mcf)
	}
}
