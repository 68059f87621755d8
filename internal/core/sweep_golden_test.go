package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"softsku/internal/chaos"
	"softsku/internal/decision"
	"softsku/internal/knob"
)

var updateSweepGolden = flag.Bool("update", false, "rewrite testdata/sweep_golden.txt from the current sweep drivers")

const sweepGoldenFile = "testdata/sweep_golden.txt"

// sweepGoldenCase is one pinned tuning run of a map sweep.
type sweepGoldenCase struct {
	name  string
	mode  SweepMode
	knobs []knob.ID
	chaos bool
}

func sweepGoldenCases() []sweepGoldenCase {
	indep := []knob.ID{knob.THP, knob.SHP, knob.CoreFreq}
	exh := []knob.ID{knob.THP, knob.SHP}
	return []sweepGoldenCase{
		{name: "independent/plain", mode: SweepIndependent, knobs: indep},
		{name: "independent/chaos", mode: SweepIndependent, knobs: indep, chaos: true},
		{name: "exhaustive/plain", mode: SweepExhaustive, knobs: exh},
		{name: "exhaustive/chaos", mode: SweepExhaustive, knobs: exh, chaos: true},
	}
}

// sweepDigest runs one case at the given worker count and renders
// everything the run decided as one line: the ledger, design-space map
// and chaos fault fingerprint as SHA-256 digests, then the composed
// SKU and the run's counters and clocks at full float precision.
func sweepDigest(t *testing.T, gc sweepGoldenCase, par int) string {
	t.Helper()
	in := fastInput("Web", "Skylake18", gc.knobs...)
	in.Sweep = gc.mode
	in.Parallel = par
	if gc.chaos {
		in.AB.GuardrailPct = 1
	}
	tool, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	var eng *chaos.Engine
	if gc.chaos {
		eng = chaos.New(42, chaos.DefaultConfig())
		tool.SetChaos(eng)
	}
	led := decision.NewLedger()
	tool.SetRecorder(led)
	res, err := tool.Run()
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := led.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	faults := "none"
	if eng != nil {
		faults = fmt.Sprintf("%x", sha256.Sum256([]byte(eng.Fingerprint())))
	}
	return fmt.Sprintf("ledger=%x map=%x faults=%s sku=%q reboots=%d vhours=%v skipped=%d reverts=%d best=%v",
		sha256.Sum256(b.Bytes()), sha256.Sum256([]byte(FormatMap(res))), faults,
		res.SoftSKU.String(), res.Reboots, res.VirtualHours, res.Skipped, res.Reverts, res.ExhaustiveBest)
}

// TestSweepLedgerGolden pins the independent and exhaustive sweeps bit
// for bit: each case's ledger bytes, design-space map, soft SKU and
// run counters must match testdata/sweep_golden.txt at -parallel 1 and
// at -parallel 8. Refactors of the search driver must leave the file
// untouched; only a deliberate behaviour change may regenerate it,
// with
//
//	go test ./internal/core -run TestSweepLedgerGolden -update
func TestSweepLedgerGolden(t *testing.T) {
	cases := sweepGoldenCases()
	var mu sync.Mutex
	got := make(map[string]string, len(cases))
	t.Run("runs", func(t *testing.T) {
		for _, gc := range cases {
			t.Run(gc.name, func(t *testing.T) {
				t.Parallel()
				serial := sweepDigest(t, gc, 1)
				if par := sweepDigest(t, gc, 8); par != serial {
					t.Fatalf("diverged across -parallel:\n  1: %s\n  8: %s", serial, par)
				}
				mu.Lock()
				got[gc.name] = serial
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	var b strings.Builder
	for _, gc := range cases {
		fmt.Fprintf(&b, "%s %s\n", gc.name, got[gc.name])
	}
	if *updateSweepGolden {
		if err := os.MkdirAll(filepath.Dir(sweepGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(sweepGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, line, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", ln)
		}
		want[name] = line
	}
	for _, gc := range cases {
		if w, ok := want[gc.name]; !ok {
			t.Errorf("%s: no golden line (regenerate with -update)", gc.name)
		} else if w != got[gc.name] {
			t.Errorf("%s:\n  got    %s\n  golden %s", gc.name, got[gc.name], w)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("golden file has %d lines for %d cases", len(want), len(cases))
	}
}
