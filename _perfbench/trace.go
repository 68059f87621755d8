package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"softsku/internal/cache"
	"softsku/internal/decision"
	"softsku/internal/platform"
	"softsku/internal/prefetch"
	"softsku/internal/rng"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/tlb"
	"softsku/internal/twin"
	"softsku/internal/workload"
)

// The traced run prices each layer from outside the program: it times
// calls into the layer's public functions, reads the Tool's span trace,
// and differences the telemetry.Default counters. A layer the traced
// workload drives is priced on that workload's own operation; a layer
// it does not drive is priced on a fixed probe (the layer replay, the
// sim ladder, a one-knob tune, a short soak), so every metric has a
// measured value on every workload.

// replayServices are the address streams the layer replay prices: Web's
// code-heavy, prefetch-bound stream and Cache1's TLB/data-bound one.
var replayServices = []string{"Web", "Cache1"}

var ladderServices = []string{"Web", "Feed1", "Feed2", "Ads1", "Ads2", "Cache1", "Cache2"}

// layerUnits lists every per-layer metric the traced run reports.
var layerUnits = func() map[string]string {
	u := map[string]string{
		"rng.draw_ns": "ns", "rng.draws": "count",

		"sim.window_minstr_per_s": "Minstr/s",
		"sim.new_machine_us":      "us",
		"sim.new_machine_kb":      "KB",
		"sim.cache_hit_ratio":     "ratio",
		"sim.find_peak_ms":        "ms",
		"sim.events_per_s":        "1/s",
		"sim.solve_us":            "us",

		"emon.sample_reads":        "count",
		"abtest.trials":            "count",
		"abtest.samples_per_trial": "count",

		"twin.scores":      "count",
		"twin.pruned":      "count",
		"twin.abs_err_pct": "%",
		"twin.predict_us":  "us",

		"core.trial_ms_p50":   "ms",
		"core.trial_ms_max":   "ms",
		"core.machine_ms_p50": "ms",
		"core.validate_s":     "s",
		"core.self_ms":        "ms",
		"core.run_warm_s":     "s",
		"core.ab_vhours":      "h",
		"core.gain_pct":       "%",

		"decision.events":    "count",
		"decision.ledger_kb": "KB",

		"fleet.rollouts":               "count",
		"fleet.rollbacks":              "count",
		"controller.cold_epoch_s":      "s",
		"controller.warm_epoch_ms_p50": "ms",
		"controller.warm_epoch_ms_max": "ms",
		"controller.retunes":           "count",
		"controller.epochs_per_s":      "epochs/s",
		"chaos.fault_events":           "count",
		"telemetry.trace_overhead_pct": "%",
	}
	for _, s := range replayServices {
		u["workload.generate_ns_per_access."+s] = "ns"
		u["cache.access_ns."+s] = "ns"
		u["tlb.access_ns."+s] = "ns"
		u["prefetch.on_access_ns."+s] = "ns"
		for _, layer := range []string{"workload", "cache", "tlb", "prefetch"} {
			u[layer+".accesses."+s] = "count"
		}
		u["cache.l1d_mpki."+s] = "MPKI"
		u["cache.l2_mpki."+s] = "MPKI"
		u["cache.llc_mpki."+s] = "MPKI"
		u["tlb.itlb_mpki."+s] = "MPKI"
		u["tlb.dtlb_mpki."+s] = "MPKI"
		u["prefetch.issued_per_kinstr."+s] = "1/kinstr"
		u["prefetch.from_memory_per_kinstr."+s] = "1/kinstr"
	}
	for _, s := range ladderServices {
		u["sim.window_ms."+s] = "ms"
	}
	return u
}()

// layerNames are the per-layer metric names in sorted order.
func layerNames() []string {
	names := make([]string, 0, len(layerUnits))
	for k := range layerUnits {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// checks counts the traced run's own correctness checks.
type checks struct {
	checked, failed []string
}

func (c *checks) expect(ok bool, format string, args ...interface{}) {
	msg := fmt.Sprintf(format, args...)
	c.checked = append(c.checked, msg)
	if !ok {
		c.failed = append(c.failed, msg)
	}
}

// priceLayers produces every per-layer metric for a traced operation.
// It runs after the operation, whose characterization windows are still
// cached.
func priceLayers(o options, sc scale, op *opResult, delta counters, tr *telemetry.Tracer) (map[string]float64, *checks, error) {
	L := map[string]float64{}
	ck := &checks{}
	L["sim.cache_hit_ratio"] = ratio(delta["softsku_sim_cache_hits_total"],
		delta["softsku_sim_cache_hits_total"]+delta["softsku_sim_cache_misses_total"])

	// µSKU layers: the tune-web operation itself, or a one-knob probe.
	tune, err := tuneEvidence(o, sc, op, delta, ck, tr)
	if err != nil {
		return nil, nil, err
	}
	priceTune(L, tune, tr)
	// The soak drives emon, abtest and the ledger through its re-tunes.
	counterSrc, ledger := tune.delta, tune.ledgerBytes
	if o.workload == "fleet-soak" {
		counterSrc = delta
		var buf bytes.Buffer
		if err := op.ledger.WriteJSONL(&buf); err != nil {
			return nil, nil, err
		}
		ledger = buf.Bytes()
	}
	L["emon.sample_reads"] = counterSrc["softsku_emon_sample_reads_total"]
	L["abtest.trials"] = counterSrc["softsku_abtest_trials_started_total"]
	L["abtest.samples_per_trial"] = ratio(counterSrc["softsku_abtest_samples_per_trial_sum"],
		counterSrc["softsku_abtest_samples_per_trial_count"])
	L["twin.scores"] = counterSrc["softsku_twin_scores_total"]
	L["twin.pruned"] = counterSrc["softsku_core_configs_twin_pruned_total"]
	L["twin.abs_err_pct"] = ratio(counterSrc["softsku_twin_abs_err_pct_sum"],
		counterSrc["softsku_twin_abs_err_pct_count"])
	L["decision.events"] = float64(bytes.Count(ledger, []byte("\n")))
	L["decision.ledger_kb"] = float64(len(ledger)) / 1024

	// Controller layers: the fleet-soak operation itself, or a short soak.
	soak := op
	if o.workload != "fleet-soak" {
		sp := tr.StartSpan("probe.soak", "probe")
		sim.ResetCharacterizationCache()
		s, err := newSoak(sc.soakServers, sc.probeEpochs)
		if err != nil {
			sp.End()
			return nil, nil, err
		}
		soak = s.run(tr)
		sp.End()
		for _, f := range soak.failures {
			ck.expect(false, "soak probe: %s", f)
		}
	}
	if err := priceSoak(L, soak, ck, tr); err != nil {
		return nil, nil, err
	}

	// Kernel layers and the sim ladder, always on fixed probes.
	sp := tr.StartSpan("probe.replay", "probe")
	for _, svc := range replayServices {
		if err := replay(L, svc, o.seed, sc.replayInstr); err != nil {
			sp.End()
			return nil, nil, err
		}
	}
	priceRNG(L, o.seed, sc.rngDraws)
	sp.End()
	sp = tr.StartSpan("probe.sim", "probe")
	err = priceSim(L, o.seed, sc, tr)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	return L, ck, nil
}

// tuneRun is the evidence of one traced µSKU run.
type tuneRun struct {
	res         *opResult
	delta       counters
	ledgerBytes []byte
	warmS       float64
}

// tuneEvidence returns the traced tune-web operation, or runs the
// one-knob probe for workloads that tune nothing themselves.
func tuneEvidence(o options, sc scale, op *opResult, delta counters, ck *checks, tr *telemetry.Tracer) (*tuneRun, error) {
	in, err := tuneInput(o.seed, sc.tuneKnobs, sc.tuneSamples)
	if err != nil {
		return nil, err
	}
	run := &tuneRun{res: op, delta: delta}
	if o.workload != "tune-web" {
		if in, err = tuneInput(o.seed, "thp", sc.tuneSamples); err != nil {
			return nil, err
		}
		w, err := newTuneWeb(in)
		if err != nil {
			return nil, err
		}
		sim.ResetCharacterizationCache()
		before := snapshotCounters()
		sp := tr.StartSpan("probe.tune", "probe")
		run.res = w.run(tr)
		sp.End()
		run.delta = snapshotCounters().minus(before)
		for _, f := range run.res.failures {
			ck.expect(false, "tune probe: %s", f)
		}
		if run.res.result == nil {
			return nil, fmt.Errorf("tune probe failed: %v", run.res.failures)
		}
	}
	var buf bytes.Buffer
	if err := run.res.ledger.WriteJSONL(&buf); err != nil {
		return nil, err
	}
	run.ledgerBytes = buf.Bytes()
	// The same run again with every window cached: all of µSKU except
	// the windows.
	warm, err := newTuneWeb(in)
	if err != nil {
		return nil, err
	}
	sp := tr.StartSpan("probe.tune_warm", "probe")
	t0 := time.Now()
	warmRes := warm.run(nil)
	run.warmS = time.Since(t0).Seconds()
	sp.End()
	for _, f := range warmRes.failures {
		ck.expect(false, "warm tune: %s", f)
	}
	return run, nil
}

// priceTune reads the Tool's spans: trial and machine-build durations,
// the final validation, and the run's self time.
func priceTune(L map[string]float64, run *tuneRun, tr *telemetry.Tracer) {
	var trials, machines []float64
	var root *telemetry.JSONSpan
	var walk func(s *telemetry.JSONSpan)
	walk = func(s *telemetry.JSONSpan) {
		switch s.Name {
		case "trial":
			trials = append(trials, s.DurUSec/1e3)
		case "sim.machine":
			machines = append(machines, s.DurUSec/1e3)
		case "validate.final":
			L["core.validate_s"] = s.DurUSec / 1e6
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	var findRoot func(s *telemetry.JSONSpan)
	findRoot = func(s *telemetry.JSONSpan) {
		if s.Name == "musku.run" && root == nil {
			root = s
			return
		}
		for _, c := range s.Children {
			findRoot(c)
		}
	}
	for _, s := range tr.Tree() {
		findRoot(s)
	}
	if root != nil {
		walk(root)
		L["core.self_ms"] = selfTime(root) / 1e3
	}
	L["core.trial_ms_p50"] = median(trials)
	L["core.trial_ms_max"] = maxOf(trials)
	L["core.machine_ms_p50"] = median(machines)
	L["core.run_warm_s"] = run.warmS
	L["core.ab_vhours"], L["core.gain_pct"] = 0, 0 // a failed run is already counted
	if r := run.res.result; r != nil {
		L["core.ab_vhours"] = r.VirtualHours
		L["core.gain_pct"] = r.VsProduction.DeltaPct
	}
}

// selfTime is a span's duration minus the part its children cover
// (children may overlap: every knob sweep's span is open while the
// shared trial pool runs).
func selfTime(s *telemetry.JSONSpan) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, c := range s.Children {
		ivs = append(ivs, iv{c.StartUSec, c.StartUSec + c.DurUSec})
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered, end := 0.0, s.StartUSec
	for _, v := range ivs {
		lo := math.Max(v.lo, end)
		if v.hi > lo {
			covered += v.hi - lo
			end = v.hi
		}
	}
	return s.DurUSec - covered
}

// priceSoak prices the controller from a soak's epochs, re-running the
// soak twice on a warm cache: once as a single Run(n) call, whose ledger
// must be byte-identical, and once epoch by epoch for warm epoch times.
func priceSoak(L map[string]float64, op *opResult, ck *checks, tr *telemetry.Tracer) error {
	var cold []float64
	for i, s := range op.epochS {
		if op.epochWindows[i] > 0 {
			cold = append(cold, s)
		}
	}
	if len(cold) == 0 {
		cold = op.epochS
	}
	L["controller.cold_epoch_s"] = median(cold)
	total := 0.0
	for _, s := range op.epochS {
		total += s
	}
	L["controller.epochs_per_s"] = ratio(float64(len(op.epochS)), total)
	L["controller.retunes"], L["chaos.fault_events"] = 0, 0 // a failed soak is already counted
	if op.report != nil {
		L["controller.retunes"] = float64(op.report.Retuned)
		L["chaos.fault_events"] = float64(op.report.FaultEvents)
	}
	L["fleet.rollouts"] = float64(countEvents(op.ledger, decision.KindRolloutStarted))
	L["fleet.rollbacks"] = float64(countEvents(op.ledger, decision.KindRollback))

	n := len(op.epochS)
	var want bytes.Buffer
	if err := op.ledger.WriteJSONL(&want); err != nil {
		return err
	}
	ctl, err := op.soak.build()
	if err != nil {
		return err
	}
	sp := tr.StartSpan("probe.soak_run_n", "probe")
	_, err = ctl.Run(n)
	sp.End()
	var got bytes.Buffer
	if err == nil {
		err = ctl.Ledger().WriteJSONL(&got)
	}
	ck.expect(err == nil && bytes.Equal(got.Bytes(), want.Bytes()),
		"epoch-by-epoch soak ledger (%d bytes) is byte-identical to one Run(%d) call's (%d bytes, err %v)",
		want.Len(), n, got.Len(), err)

	if ctl, err = op.soak.build(); err != nil {
		return err
	}
	var warm []float64
	for e := 0; e < n; e++ {
		sp := tr.StartSpan(fmt.Sprintf("warm epoch %d", e), "probe")
		t0 := time.Now()
		_, err := ctl.Run(1)
		warm = append(warm, float64(time.Since(t0).Microseconds())/1e3)
		sp.End()
		if err != nil {
			return fmt.Errorf("warm epoch %d: %w", e, err)
		}
	}
	L["controller.warm_epoch_ms_p50"] = median(warm)
	L["controller.warm_epoch_ms_max"] = maxOf(warm)
	return nil
}

// countEvents counts ledger events of one kind.
func countEvents(l *decision.Ledger, kind decision.Kind) int {
	n := 0
	for _, e := range l.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// replay prices the kernel layers on one service's own address stream.
// It builds the window's chain from the public constructors (stream →
// hierarchy → page resolver and TLB → prefetch engine) and replays it in
// runWindow's chunked order, timing each stage over a whole chunk: an
// untimed pass of replayInstr instructions per thread warms the caches,
// which start empty, then a timed pass of as many again is measured.
func replay(L map[string]float64, service string, seed uint64, instr int) error {
	base, err := workload.ByName(service)
	if err != nil {
		return err
	}
	sku, err := platform.ByName(base.Platform)
	if err != nil {
		return err
	}
	prof := workload.ForPlatform(base, sku.Name)
	cfg := sim.ProductionConfig(sku, prof)
	layout := prof.BuildLayout()
	space, err := tlb.NewAddressSpace(layout.Regions, cfg.THP, cfg.SHPCount)
	if err != nil {
		return err
	}
	pages := space.Resolver()
	threads := sim.WindowThreads(cfg.Cores)
	hier := cache.NewHierarchySized(sku, threads, sku.LLC*sku.Sockets)
	if cfg.CDP.Enabled() {
		if err := hier.ApplyCDP(cfg.CDP.DataWays, cfg.CDP.CodeWays); err != nil {
			return err
		}
	}
	geom := tlb.Geometry{ITLB4K: sku.ITLB4K, ITLB2M: sku.ITLB2M, DTLB4K: sku.DTLB4K, DTLB2M: sku.DTLB2M, STLB: sku.STLB}
	coreScale := float64(cfg.Cores) / float64(threads)
	var tlbs []*tlb.TLB
	var pfs []*prefetch.Engine
	var streams []*workload.Stream
	for i := 0; i < threads; i++ {
		tlbs = append(tlbs, tlb.New(geom))
		pfs = append(pfs, prefetch.NewEngine(hier, i, cfg.Prefetch))
		streams = append(streams, workload.NewStream(prof, layout, seed+uint64(i)*7919, i, coreScale))
	}

	const chunk = 2000
	buf := make([]workload.Access, 0, 2*chunk)
	levels := make([]cache.Level, 0, 2*chunk)
	var gen, hit, tl, pf time.Duration
	var accesses int
	pass := func(timed bool) {
		for done := 0; done < instr; done += chunk {
			for ti := range streams {
				t0 := time.Now()
				buf = streams[ti].Generate(buf[:0], chunk)
				t1 := time.Now()
				levels = levels[:0]
				for i := range buf {
					levels = append(levels, hier.Access(ti, buf[i].Addr, buf[i].Kind))
				}
				t2 := time.Now()
				t := tlbs[ti]
				for i := range buf {
					page, huge := pages.PageOf(int(buf[i].Region), buf[i].Addr)
					t.Access(page, huge, buf[i].Type)
				}
				t3 := time.Now()
				p := pfs[ti]
				for i := range buf {
					p.OnAccess(buf[i].Addr, buf[i].Kind, buf[i].IP, levels[i])
				}
				t4 := time.Now()
				if timed {
					gen += t1.Sub(t0)
					hit += t2.Sub(t1)
					tl += t3.Sub(t2)
					pf += t4.Sub(t3)
					accesses += len(buf)
				}
			}
		}
	}
	pass(false)
	pass(true)
	n := float64(accesses)
	L["workload.generate_ns_per_access."+service] = float64(gen.Nanoseconds()) / n
	L["cache.access_ns."+service] = float64(hit.Nanoseconds()) / n
	L["tlb.access_ns."+service] = float64(tl.Nanoseconds()) / n
	L["prefetch.on_access_ns."+service] = float64(pf.Nanoseconds()) / n
	for _, layer := range []string{"workload", "cache", "tlb", "prefetch"} {
		L[layer+".accesses."+service] = n
	}
	return nil
}

var rngSink uint64

func priceRNG(L map[string]float64, seed uint64, draws int) {
	src := rng.New(seed)
	var x uint64
	t0 := time.Now()
	for i := 0; i < draws; i++ {
		x ^= src.Uint64()
	}
	el := time.Since(t0)
	rngSink = x
	L["rng.draw_ns"] = float64(el.Nanoseconds()) / float64(draws)
	L["rng.draws"] = float64(draws)
}

// priceSim walks the sim ladder for every service on its default SKU
// from a cold cache: machine construction, the window, the operating
// point solve and the FindPeak event simulation, each timed on its own.
func priceSim(L map[string]float64, seed uint64, sc scale, tr *telemetry.Tracer) error {
	sim.ResetCharacterizationCache()
	var windowS, instr, peaks, events float64
	var solveUS, peakMS []float64
	for _, svc := range ladderServices {
		base, err := workload.ByName(svc)
		if err != nil {
			return err
		}
		sku, err := platform.ByName(base.Platform)
		if err != nil {
			return err
		}
		prof := workload.ForPlatform(base, sku.Name)
		srv, err := platform.NewServer(sku, sim.ProductionConfig(sku, prof))
		if err != nil {
			return err
		}
		m, err := sim.NewMachine(srv, prof, seed)
		if err != nil {
			return err
		}
		sp := tr.StartSpan("sim.window "+svc, "sim")
		t0 := time.Now()
		rates := m.Characterize()
		w := time.Since(t0).Seconds()
		sp.End()
		L["sim.window_ms."+svc] = w * 1e3
		windowS += w
		instr += float64(rates.Instructions)

		t0 = time.Now()
		m.SolvePeak()
		solveUS = append(solveUS, float64(time.Since(t0).Nanoseconds())/1e3)

		e0 := counterValue("softsku_sim_events_total")
		sp = tr.StartSpan("sim.find_peak "+svc, "sim")
		t0 = time.Now()
		m.FindPeak(seed)
		p := time.Since(t0).Seconds()
		sp.End()
		peakMS = append(peakMS, p*1e3)
		peaks += p
		events += counterValue("softsku_sim_events_total") - e0

		for _, rs := range replayServices {
			if rs == svc {
				priceModel(L, svc, rates)
			}
		}
	}
	L["sim.window_minstr_per_s"] = instr / windowS / 1e6
	L["sim.solve_us"] = median(solveUS)
	L["sim.find_peak_ms"] = median(peakMS)
	L["sim.events_per_s"] = events / peaks

	// Machine construction, which every A/B arm pays even on a cached
	// window, and one analytical-twin prediction, on Web's production
	// configuration.
	base, err := workload.ByName("Web")
	if err != nil {
		return err
	}
	sku, err := platform.ByName(base.Platform)
	if err != nil {
		return err
	}
	prof := workload.ForPlatform(base, sku.Name)
	cfg := sim.ProductionConfig(sku, prof)
	srv, err := platform.NewServer(sku, cfg)
	if err != nil {
		return err
	}
	var ms0, ms1 runtime.MemStats
	var build []float64
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sc.machineReps; i++ {
		t0 := time.Now()
		if _, err := sim.NewMachine(srv, prof, seed); err != nil {
			return err
		}
		build = append(build, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	runtime.ReadMemStats(&ms1)
	L["sim.new_machine_us"] = median(build)
	L["sim.new_machine_kb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(sc.machineReps) / 1024

	model := twin.NewModel(sku, prof)
	var predict []float64
	for i := 0; i < sc.predictCalls; i++ {
		t0 := time.Now()
		model.Predict(cfg, prof.MaxCPUUtil)
		predict = append(predict, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	L["twin.predict_us"] = median(predict)
	return nil
}

// priceModel records the modelled design's event rates from one window:
// a speed-only change must leave every one of them identical.
func priceModel(L map[string]float64, svc string, r *sim.WindowRates) {
	_, l1d := r.CacheMPKI(cache.L1)
	l2c, l2d := r.CacheMPKI(cache.L2)
	llcc, llcd := r.CacheMPKI(cache.LLC)
	itlb, dload, dstore := r.TLBMPKI()
	k := float64(r.Instructions) / 1000
	L["cache.l1d_mpki."+svc] = l1d
	L["cache.l2_mpki."+svc] = l2c + l2d
	L["cache.llc_mpki."+svc] = llcc + llcd
	L["tlb.itlb_mpki."+svc] = itlb
	L["tlb.dtlb_mpki."+svc] = dload + dstore
	L["prefetch.issued_per_kinstr."+svc] = float64(r.PF.Issued) / k
	L["prefetch.from_memory_per_kinstr."+svc] = float64(r.PF.FromMemory) / k
}

// writeTrace writes every span of the traced run (the harness's own and
// the Tool's) as Chrome trace_event JSON under .bench_build.
func writeTrace(o options, tr *telemetry.Tracer) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
