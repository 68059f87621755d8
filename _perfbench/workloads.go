package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"time"

	"softsku"
	"softsku/internal/chaos"
	"softsku/internal/core"
	"softsku/internal/decision"
	"softsku/internal/fleet/controller"
	"softsku/internal/sim"
	"softsku/internal/telemetry"
	"softsku/internal/workload"
)

// scale sizes every workload. "full" is the benchmark; "tiny" keeps the
// same code paths at a size the harness self-test can afford.
type scale struct {
	pairs       int    // char-fleet (service, SKU) pairs; 0 means all 21
	tuneKnobs   string // tune-web knob list
	tuneSamples int    // tune-web per-arm sample cap
	soakServers int    // fleet-soak fleet size (always the default 24 pools)
	soakEpochs  int    // fleet-soak control epochs

	// Traced-run probes of layers the workload itself does not drive.
	replayInstr  int // replay instructions per thread (timed; as many again warm the caches)
	rngDraws     int // rng draws timed
	probeEpochs  int // soak probe control epochs
	machineReps  int // sim.NewMachine constructions timed
	predictCalls int // twin predictions timed
}

var scales = map[string]scale{
	"full": {
		tuneKnobs: "thp,shp,corefreq,prefetch", tuneSamples: 1500,
		soakServers: 1008, soakEpochs: 12,
		replayInstr: 100_000, rngDraws: 20_000_000,
		probeEpochs: 4, machineReps: 10, predictCalls: 200,
	},
	"tiny": {
		pairs: 1, tuneKnobs: "thp", tuneSamples: 300,
		soakServers: 48, soakEpochs: 2,
		replayInstr: 4_000, rngDraws: 100_000,
		probeEpochs: 2, machineReps: 2, predictCalls: 5,
	},
}

// state is a built workload, ready for its timed operation.
type state interface {
	// run performs the operation. tr is nil for untraced runs; a traced
	// run records its own spans around every public call it makes.
	run(tr *telemetry.Tracer) *opResult
}

// opResult is what an operation produced, for checking and reporting.
type opResult struct {
	attempted int
	failures  []string
	// facts are the operation's checked outputs in canonical string
	// form: their digest must repeat exactly on one seed, and recorded
	// seeds compare them to expected.json.
	facts   map[string]string
	summary map[string]float64

	// Per-layer inputs, read by the traced run.
	result       *core.Result
	ledger       *decision.Ledger
	epochS       []float64 // host seconds per control epoch
	epochWindows []float64 // fresh windows per control epoch
	report       *controller.Report
	soak         *soakState
}

func (r *opResult) fail(format string, args ...interface{}) {
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

// workloads maps each workload to its set-up, which the harness times on
// its own; the set-up returns the operation the end-to-end metrics price.
// README.md records why each was chosen.
var workloads = map[string]func(seed uint64, sc scale) (state, error){
	"char-fleet": setupCharFleet, // the pure simulator, every service on every SKU
	"tune-web":   setupTuneWeb,   // the user-facing µSKU run: windows plus A/B, search, twin, ledger
	"fleet-soak": setupFleetSoak, // the controller, rollouts and chaos over mostly cached re-tunes
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for k := range workloads {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func digestOf(facts map[string]string) string {
	keys := make([]string, 0, len(facts))
	for k := range facts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, facts[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func sha16(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])[:16]
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// trialWorkers is the trial worker count: two, or fewer on a smaller host.
func trialWorkers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// ---- char-fleet ----

// charPair is one characterization: the service, its SKU, and the
// platform-adjusted profile and production configuration that key its
// window in the characterization cache.
type charPair struct {
	svc  *softsku.Service
	sku  *softsku.SKU
	prof *workload.Profile
	cfg  softsku.Config
}

type charFleet struct {
	seed  uint64
	pairs []charPair
}

func setupCharFleet(seed uint64, sc scale) (state, error) {
	w := &charFleet{seed: seed}
	for _, sku := range softsku.Platforms() {
		for _, svc := range softsku.Services() {
			prof := workload.ForPlatform(svc, sku.Name)
			w.pairs = append(w.pairs, charPair{svc: svc, sku: sku, prof: prof, cfg: sim.ProductionConfig(sku, prof)})
		}
	}
	if sc.pairs > 0 {
		w.pairs = w.pairs[:sc.pairs]
	}
	return w, nil
}

func (w *charFleet) run(tr *telemetry.Tracer) *opResult {
	r := &opResult{facts: map[string]string{}}
	for _, p := range w.pairs {
		name := p.sku.Name + "/" + p.svc.Name
		r.attempted++
		sp := tr.StartSpan("characterize "+name, "char-fleet")
		c, err := softsku.Characterize(p.svc.Name, softsku.OnPlatform(p.sku.Name), softsku.Seed(w.seed))
		sp.End()
		if err != nil {
			r.fail("%s: %v", name, err)
			continue
		}
		// The window itself is not returned; read it back from the
		// characterization cache (a lookup, never a new window).
		rates, ok := sim.CachedRates(p.sku, p.prof, p.cfg, 0, w.seed)
		if !ok {
			r.fail("%s: window rates not in the characterization cache", name)
			continue
		}
		if !(c.QPS > 0) || !finite(c.QPS) || !(c.Counters.IPC > 0) || !finite(c.P99LatencySec) {
			r.fail("%s: implausible characterization QPS=%v IPC=%v p99=%v", name, c.QPS, c.Counters.IPC, c.P99LatencySec)
			continue
		}
		r.facts[name] = sha16(fmt.Sprintf("%#v|%#v", *rates, c))
	}
	return r
}

// ---- tune-web ----

type tuneWeb struct {
	tool   *core.Tool
	ledger *decision.Ledger
	sku    *softsku.SKU
}

// tuneInput builds a µSKU input through the input-file parser, exactly
// as musku's flags do.
func tuneInput(seed uint64, knobs string, samples int) (core.Input, error) {
	return softsku.ParseTuneInput(fmt.Sprintf(
		"microservice = Web\nplatform = Skylake18\nsweep = independent\nmetric = mips\n"+
			"seed = %d\nknobs = %s\nmax_samples = %d\nparallel = %d\ntwin = on\n",
		seed, knobs, samples, trialWorkers()))
}

func setupTuneWeb(seed uint64, sc scale) (state, error) {
	in, err := tuneInput(seed, sc.tuneKnobs, sc.tuneSamples)
	if err != nil {
		return nil, err
	}
	return newTuneWeb(in)
}

func newTuneWeb(in core.Input) (*tuneWeb, error) {
	tool, err := softsku.NewTool(in)
	if err != nil {
		return nil, err
	}
	sku, err := softsku.PlatformByName(in.Platform)
	if err != nil {
		return nil, err
	}
	w := &tuneWeb{tool: tool, ledger: softsku.NewDecisionLedger(), sku: sku}
	tool.SetRecorder(w.ledger)
	return w, nil
}

func (w *tuneWeb) run(tr *telemetry.Tracer) *opResult {
	r := &opResult{facts: map[string]string{}, ledger: w.ledger, attempted: 1}
	w.tool.SetTracer(tr)
	w0 := sim.WindowsExecuted()
	pruned0 := counterValue("softsku_core_configs_twin_pruned_total")
	res, err := w.tool.Run()
	if err != nil {
		r.fail("tune-web: %v", err)
		return r
	}
	r.result = res
	if err := w.sku.Validate(res.SoftSKU); err != nil {
		r.fail("tune-web: composed soft SKU %s invalid: %v", res.SoftSKU, err)
	}
	gain := res.VsProduction.DeltaPct
	if !finite(gain) || !(res.VirtualHours > 0) {
		r.fail("tune-web: implausible result gain=%v%% vhours=%v", gain, res.VirtualHours)
	}
	var ledger bytes.Buffer
	if err := w.ledger.WriteJSONL(&ledger); err != nil {
		r.fail("tune-web: ledger export: %v", err)
	}
	r.facts["soft_sku"] = res.SoftSKU.String()
	r.facts["gain_pct"] = fmtFloat(gain)
	r.facts["ab_vhours"] = fmtFloat(res.VirtualHours)
	r.facts["fresh_windows"] = fmtFloat(sim.WindowsExecuted() - w0)
	r.facts["twin_pruned"] = fmtFloat(counterValue("softsku_core_configs_twin_pruned_total") - pruned0)
	r.facts["ledger_sha256"] = sha16(ledger.String())
	r.summary = map[string]float64{"ab_vhours": res.VirtualHours, "gain_pct": gain}
	return r
}

// ---- fleet-soak ----

type soakState struct {
	ctl    *controller.Controller
	epochs int
	// build rebuilds an identical controller, for the ledger identity
	// check and the warm pass of the traced run.
	build func() (*controller.Controller, error)
}

// newSoak builds the make-soak / BENCH_fleet chaos soak: controller
// seed 42, chaos seed 99. It takes no workload seed. The soak's cost is
// set by which pools drift, and across seeds that moves its windows by
// a quarter (21 to 37 over 12 epochs for seeds 1 to 5), more than any
// bound can absorb; so every run soaks this one fleet history, and
// every run is checked against its recorded outputs.
func newSoak(servers, epochs int) (*soakState, error) {
	build := func() (*controller.Controller, error) {
		cfg := controller.DefaultConfig()
		cfg.Seed = 42
		cfg.Parallel = trialWorkers()
		cfg.DriftRate = 0.04
		cfg.TuneMinSamples = 40
		cfg.TuneMaxSamples = 120
		ctl, err := controller.New(cfg, controller.DefaultFleetSpec(servers))
		if err != nil {
			return nil, err
		}
		ccfg := chaos.DefaultConfig()
		ccfg.BlackoutPct = 0.01
		ccfg.BlackoutSec = 86400
		ctl.SetChaos(chaos.New(99, ccfg))
		return ctl, nil
	}
	ctl, err := build()
	if err != nil {
		return nil, err
	}
	return &soakState{ctl: ctl, epochs: epochs, build: build}, nil
}

func setupFleetSoak(_ uint64, sc scale) (state, error) {
	return newSoak(sc.soakServers, sc.soakEpochs)
}

func (s *soakState) run(tr *telemetry.Tracer) *opResult {
	r := &opResult{facts: map[string]string{}, ledger: s.ctl.Ledger(), soak: s}
	start := time.Now()
	var rep *controller.Report
	for e := 0; e < s.epochs; e++ {
		r.attempted++
		w0 := sim.WindowsExecuted()
		sp := tr.StartSpan(fmt.Sprintf("epoch %d", e), "fleet-soak")
		t0 := time.Now()
		got, err := s.ctl.Run(1)
		r.epochS = append(r.epochS, time.Since(t0).Seconds())
		sp.End()
		r.epochWindows = append(r.epochWindows, sim.WindowsExecuted()-w0)
		if err != nil {
			r.fail("epoch %d: %v", e, err)
			return r
		}
		rep = got
	}
	elapsed := time.Since(start).Seconds()
	r.report = rep
	r.attempted++
	if !rep.Converged || rep.MixedPools != 0 {
		r.fail("soak ended with %d mixed pools (converged=%v)", rep.MixedPools, rep.Converged)
	}
	var ledger bytes.Buffer
	if err := s.ctl.Ledger().WriteJSONL(&ledger); err != nil {
		r.fail("soak ledger export: %v", err)
	}
	r.facts["converged"] = strconv.FormatBool(rep.Converged)
	r.facts["report"] = fmt.Sprintf("epochs=%d drifted=%d retuned=%d rolled_out=%d failures=%d quarantined=%d breaker_opens=%d faults=%d",
		rep.Epochs, rep.Drifted, rep.Retuned, rep.RolledOut, rep.RolloutFailures, rep.Quarantined, rep.BreakerOpens, rep.FaultEvents)
	r.facts["fault_fingerprint"] = sha16(rep.Fingerprint)
	r.facts["ledger_sha256"] = sha16(ledger.String())
	var windows float64
	for _, w := range r.epochWindows {
		windows += w
	}
	r.facts["fresh_windows"] = fmtFloat(windows)
	r.summary = map[string]float64{"epochs_per_s": float64(s.epochs) / elapsed}
	return r
}

// counterValue reads one scalar metric from the process-wide registry.
func counterValue(name string) float64 {
	var v float64
	telemetry.Default.Each(func(n string, x float64) {
		if n == name {
			v = x
		}
	})
	return v
}

// histogramSums reads a registry histogram's running count and sum.
func histogramSums(name string) (count, sum float64) {
	s := telemetry.Default.Histogram(name, "").Snapshot()
	return float64(s.Count()), s.Sum()
}

// ---- child ----

// runChild builds the workload, runs its operation once from a cold
// characterization cache, and, for a traced child, prices every layer.
func runChild(o options) (*childResult, error) {
	sc := scales[o.scale]
	res := &childResult{}
	st, err := workloads[o.workload](o.seed, sc)
	if err != nil {
		return nil, fmt.Errorf("set-up of %s: %w", o.workload, err)
	}
	runtime.GC()

	var tr *telemetry.Tracer
	if o.child == "trace" {
		tr = telemetry.NewTracer()
	}
	sim.ResetCharacterizationCache()
	before := snapshotCounters()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	w0 := sim.WindowsExecuted()
	t0 := time.Now()
	op := st.run(tr)
	res.WallS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	res.FreshWindows = sim.WindowsExecuted() - w0
	res.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
	delta := snapshotCounters().minus(before)

	res.Attempted = op.attempted
	res.Failures = op.failures
	res.Digest = digestOf(op.facts)
	res.Summary = op.summary
	res.Facts = op.facts
	if tr == nil {
		return res, nil
	}
	layers, ck, err := priceLayers(o, sc, op, delta, tr)
	if err != nil {
		return nil, err
	}
	res.Layers = layers
	res.Attempted += len(ck.checked)
	res.Failures = append(res.Failures, ck.failed...)
	res.TraceFile, err = writeTrace(o, tr)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// counters is a snapshot of every scalar metric in the registry.
type counters map[string]float64

func snapshotCounters() counters {
	c := counters{}
	telemetry.Default.Each(func(n string, v float64) { c[n] = v })
	for _, h := range []string{"softsku_abtest_samples_per_trial", "softsku_twin_abs_err_pct"} {
		n, s := histogramSums(h)
		c[h+"_count"], c[h+"_sum"] = n, s
	}
	return c
}

func (c counters) minus(base counters) counters {
	d := counters{}
	for k, v := range c {
		d[k] = v - base[k]
	}
	return d
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
