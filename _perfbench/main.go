// Command perfbench is the repository's cold-start benchmark. It drives
// three workloads through the public entry points (softsku.Characterize,
// core.New / Tool.Run, controller.New / Controller.Run) and prints, as
// the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host time, memory,
// characterization windows); with -trace 1 they are the per-layer ones.
// Every timed operation runs in a fresh child process, so it starts
// from an empty characterization cache and its peak RSS is its own.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash _perfbench/run.sh --workload tune-web --seed 1 --seconds 30 --trace 0
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line inputs of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	child    string // "": orchestrate; "e2e" or "trace": run one operation; "setup": build the workload and exit
	scale    string // "full" or "tiny" (the harness self-test)
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), " | "))
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed always builds the same inputs")
	fs.IntVar(&o.seconds, "seconds", 30, "measurement budget in host seconds (at least one operation always runs)")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.child, "child", "", "internal: run one operation in this process (e2e | trace | setup)")
	fs.StringVar(&o.scale, "scale", "full", "full | tiny (tiny shrinks every workload for the harness self-test)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.child != "" && o.child != "e2e" && o.child != "trace" && o.child != "setup" {
		return o, fmt.Errorf("-child must be e2e, trace or setup, got %q", o.child)
	}
	if o.scale != "full" && o.scale != "tiny" {
		return o, fmt.Errorf("-scale must be full or tiny, got %q", o.scale)
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if o.child == "setup" {
		if _, err := workloads[o.workload](o.seed, scales[o.scale]); err != nil {
			fmt.Fprintln(stderr, "perfbench setup child:", err)
			return 1
		}
		return 0
	}
	if o.child != "" {
		res, err := runChild(o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "perfbench child:", err)
			return 1
		}
		return 0
	}
	out, err := orchestrate(o, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the final JSON line.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// childResult is what one child process reports about its operation.
type childResult struct {
	Attempted int      `json:"attempted"`
	Failures  []string `json:"failures,omitempty"`
	// Digest fingerprints every checked output of the operation; two
	// operations on the same seed must agree on it.
	Digest       string             `json:"digest"`
	WallS        float64            `json:"wall_s"`
	AllocBytes   uint64             `json:"alloc_bytes"`
	FreshWindows float64            `json:"fresh_windows"`
	Facts        map[string]string  `json:"facts"`
	Summary      map[string]float64 `json:"summary,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"`
	TraceFile    string             `json:"trace_file,omitempty"`

	peakRSSMB float64 // filled in by the parent from the child's rusage
}

// childCmd re-executes this binary in one of its child modes.
func childCmd(o options, mode string, stderr io.Writer) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating own binary: %w", err)
	}
	cmd := exec.Command(self, "-child", mode, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-scale", o.scale)
	cmd.Stderr = stderr
	// The child must not outlive a benchmark that is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd, nil
}

// setupProcs is how many fresh processes time the set-up.
const setupProcs = 21

// timeSetup prices set-up as every CLI start pays it: a fresh process
// that starts, initializes every package, builds the workload once and
// exits. A set-up alone takes microseconds to a millisecond, where this
// host's load swings move a timing by a quarter; whole process starts
// repeat within a few percent. It returns the median of setupProcs.
func timeSetup(o options, stderr io.Writer) (float64, error) {
	var ts []float64
	for i := 0; i < setupProcs; i++ {
		cmd, err := childCmd(o, "setup", stderr)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup child for %s: %w", o.workload, err)
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts), nil
}

// spawn runs one operation in a fresh child process and waits for it.
func spawn(o options, mode string, stderr io.Writer) (*childResult, error) {
	cmd, err := childCmd(o, mode, stderr)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child for %s: %w", mode, o.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("%s child for %s: bad result line: %w", mode, o.workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.peakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &res, nil
}

// orchestrate runs the benchmark: repeated cold operations in child
// processes for -trace 0, or one untraced plus one traced operation for
// -trace 1, and folds them into the output line.
func orchestrate(o options, stdout, stderr io.Writer) (*output, error) {
	exp, err := loadExpected()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d trace=%d seconds=%d %s\n",
		o.workload, o.seed, o.trace, o.seconds, provenance())

	start := time.Now()
	setup, err := timeSetup(o, stderr)
	if err != nil {
		return nil, err
	}
	var runs []*childResult
	var traced *childResult
	if o.trace == 0 {
		// Whole operations only: stop before one would overrun the
		// budget, but always measure at least one.
		for {
			t0 := time.Now()
			r, err := spawn(o, "e2e", stderr)
			if err != nil {
				return nil, err
			}
			runs = append(runs, r)
			if time.Since(start)+time.Since(t0) > time.Duration(o.seconds)*time.Second {
				break
			}
		}
	} else {
		r, err := spawn(o, "e2e", stderr)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
		if traced, err = spawn(o, "trace", stderr); err != nil {
			return nil, err
		}
	}

	out := &output{Metrics: map[string]metric{}}
	var failures []string
	all := runs
	if traced != nil {
		all = append(all, traced)
	}
	for i, r := range all {
		out.Attempted += r.Attempted
		failures = append(failures, r.Failures...)
		// Every operation on one seed must produce the same outputs.
		if i == 0 {
			continue
		}
		out.Attempted++
		if r.Digest != all[0].Digest {
			failures = append(failures, fmt.Sprintf("operation %d digest %s differs from operation 0 digest %s",
				i, r.Digest, all[0].Digest))
		}
	}
	failures = append(failures, exp.check(o, runs[0])...)
	out.Attempted += exp.checks(o)
	out.Failed = len(failures)
	out.Correct = out.Failed == 0
	for _, f := range failures {
		fmt.Fprintln(stdout, "perfbench: FAILED:", f)
	}

	var walls, allocs, rss, windows []float64
	for _, r := range runs {
		walls = append(walls, r.WallS)
		allocs = append(allocs, float64(r.AllocBytes)/1e9)
		rss = append(rss, r.peakRSSMB)
		windows = append(windows, r.FreshWindows)
	}
	e2e := map[string]metric{
		"setup_s":       {setup, "s"},
		"wall_s":        {median(walls), "s"},
		"alloc_gb":      {median(allocs), "GB"},
		"peak_rss_mb":   {median(rss), "MB"},
		"fresh_windows": {median(windows), "count"},
	}
	fmt.Fprintf(stdout, "perfbench: %d operation(s) in %.1fs; %d/%d checks failed\n",
		len(runs), time.Since(start).Seconds(), out.Failed, out.Attempted)
	printMetrics(stdout, e2e)
	summary := map[string]metric{}
	for k, v := range runs[0].Summary {
		summary[k] = metric{v, summaryUnits[k]}
	}
	printMetrics(stdout, summary)

	if traced == nil {
		out.Metrics = e2e
		return out, nil
	}
	traced.Layers["telemetry.trace_overhead_pct"] = (traced.WallS - runs[0].WallS) / runs[0].WallS * 100
	layers := map[string]metric{}
	for _, name := range layerNames() {
		v, ok := traced.Layers[name]
		if !ok {
			return nil, fmt.Errorf("traced run did not report %s", name)
		}
		layers[name] = metric{v, layerUnits[name]}
	}
	printMetrics(stdout, layers)
	if traced.TraceFile != "" {
		fmt.Fprintf(stdout, "perfbench: chrome trace written to %s\n", traced.TraceFile)
	}
	out.Metrics = layers
	return out, nil
}

// summaryUnits are the workload results printed beside the end-to-end
// metrics (and reported per layer by the traced run).
var summaryUnits = map[string]string{
	"ab_vhours":    "h",
	"gain_pct":     "%",
	"epochs_per_s": "epochs/s",
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// provenance names the host shape and the code measured.
func provenance() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s source_sha256=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit(), sourceDigest())
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the checked-out revision when the benchmark runs inside a
// git work tree, "none" otherwise; sourceDigest identifies the code in
// either case.
func commit() string {
	if _, err := os.Stat(".git"); err != nil {
		return "none"
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and go.mod under the working
// directory, skipping dot directories such as .git and .bench_build.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	if len(xs) == 0 {
		return math.NaN()
	}
	return m
}
