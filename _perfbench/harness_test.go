package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// orchestrator re-executes itself for every operation with -child.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// runTiny runs the benchmark at the self-test scale and parses its last
// output line.
func runTiny(t *testing.T, workload string, trace string) output {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "1", "--seconds", "1", "--trace", trace, "--scale", "tiny"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace=%s: exit %d\n%s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v", workload, trace, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s trace=%s: correct=%v failed=%d attempted=%d\n%s", workload, trace, out.Correct, out.Failed, out.Attempted, stdout.String())
	}
	return out
}

// TestEveryMetricIsEmitted runs every workload untraced and traced and
// checks that the metrics are exactly the ones BENCHMARK.json names, each
// with its unit.
func TestEveryMetricIsEmitted(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the harness", w.Name)
		}
		for _, tc := range []struct {
			trace string
			want  []struct {
				Name string `json:"name"`
				Unit string `json:"unit"`
			}
		}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
			out := runTiny(t, w.Name, tc.trace)
			if len(out.Metrics) != len(tc.want) {
				t.Errorf("%s trace=%s: %d metrics, BENCHMARK.json names %d", w.Name, tc.trace, len(out.Metrics), len(tc.want))
			}
			for _, m := range tc.want {
				got, ok := out.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%s: metric %s not emitted", w.Name, tc.trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s unit %q, BENCHMARK.json says %q", w.Name, tc.trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestPerturbedExpectationFails records a tiny tune-web run's facts as
// the expectation, then perturbs one digest: the untouched record must
// pass and the perturbed one must count a failed check.
func TestPerturbedExpectationFails(t *testing.T) {
	res, err := runChild(options{workload: "tune-web", seed: 1, child: "e2e", scale: "tiny"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Facts["ledger_sha256"] == "" {
		t.Fatalf("tune-web reported no ledger digest: %v", res.Facts)
	}
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	record := func(facts map[string]string) {
		data, err := json.Marshal(expected{"tiny": {"tune-web": {"1": facts}}})
		if err != nil {
			t.Fatal(err)
		}
		expectedJSON = data
	}

	record(res.Facts)
	out := runTiny(t, "tune-web", "0")
	if out.Attempted != 1+len(res.Facts) {
		t.Errorf("attempted = %d, want 1 run plus %d recorded facts", out.Attempted, len(res.Facts))
	}

	perturbed := map[string]string{}
	for k, v := range res.Facts {
		perturbed[k] = v
	}
	perturbed["ledger_sha256"] = "0000000000000000"
	record(perturbed)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "tune-web", "--seed", "1", "--seconds", "1", "--scale", "tiny"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Failed != 1 {
		t.Errorf("perturbed digest: correct=%v failed=%d, want false and 1\n%s", got.Correct, got.Failed, stdout.String())
	}
}

// TestRejectsBadArguments: a bad workload or flag exits non-zero
// without a result line.
func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tune-web", "--trace", "2"},
		{"--workload", "tune-web", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
