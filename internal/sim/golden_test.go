package sim

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"softsku/internal/knob"
	"softsku/internal/platform"
	"softsku/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/window_golden.txt from the current window kernel")

const windowGoldenFile = "testdata/window_golden.txt"

// goldenCase is one characterization window pinned by TestWindowGolden.
type goldenCase struct {
	name     string
	svc, sku string
	cfg      func(*platform.SKU, *workload.Profile) knob.Config
	catWays  int
	// stock names the case this one varies one input of; its window
	// must differ from that case's, or the input never reached it.
	stock string
}

// windowGoldenCases lists every pinned window: all seven services on
// all three SKUs at production config, plus Web and Cache1 on
// Skylake18 at stock and at one non-default value of each input that
// reaches the window (active cores, CDP split, prefetch mask, THP, SHP
// reservation, CAT ways, and core frequency through the context-switch
// interval). Core frequency is varied for Cache1 only: Web's 900
// switches/s give a switch interval longer than the whole window at
// every frequency the SKU allows, so its window cannot see the change.
func windowGoldenCases() []goldenCase {
	var cases []goldenCase
	for _, sku := range platform.FleetSKUs() {
		for _, prof := range workload.All() {
			cases = append(cases, goldenCase{
				name: "prod/" + prof.Name + "/" + sku.Name,
				svc:  prof.Name, sku: sku.Name,
				cfg: ProductionConfig,
			})
		}
	}
	stock := func(s *platform.SKU, _ *workload.Profile) knob.Config { return s.StockConfig() }
	variant := func(mod func(*knob.Config, *platform.SKU)) func(*platform.SKU, *workload.Profile) knob.Config {
		return func(s *platform.SKU, p *workload.Profile) knob.Config {
			c := stock(s, p)
			mod(&c, s)
			return c
		}
	}
	for _, svc := range []string{"Web", "Cache1"} {
		stockName := "stock/" + svc + "/Skylake18"
		add := func(name string, cfg func(*platform.SKU, *workload.Profile) knob.Config, cat int) {
			gc := goldenCase{
				name: name + "/" + svc + "/Skylake18",
				svc:  svc, sku: "Skylake18",
				cfg: cfg, catWays: cat,
			}
			if gc.name != stockName {
				gc.stock = stockName
			}
			cases = append(cases, gc)
		}
		add("stock", stock, 0)
		add("cores=2", variant(func(c *knob.Config, _ *platform.SKU) { c.Cores = 2 }), 0)
		add("cdp=6/5", variant(func(c *knob.Config, _ *platform.SKU) {
			c.CDP = knob.CDPConfig{DataWays: 6, CodeWays: 5}
		}), 0)
		add("pf=l2adj+dcuip", variant(func(c *knob.Config, _ *platform.SKU) {
			c.Prefetch = knob.PrefetchL2Adj | knob.PrefetchDCUIP
		}), 0)
		add("thp=never", variant(func(c *knob.Config, _ *platform.SKU) { c.THP = knob.THPNever }), 0)
		add("shp=300", variant(func(c *knob.Config, _ *platform.SKU) { c.SHPCount = 300 }), 0)
		add("cat=8", stock, 8)
		if svc == "Cache1" {
			add("corefreq=min", variant(func(c *knob.Config, s *platform.SKU) { c.CoreFreqMHz = s.MinCoreMHz }), 0)
		}
	}
	return cases
}

// windowDigest measures one golden case on a fresh machine with seed 1
// and returns the SHA-256 of its WindowRates rendered with %#v.
func windowDigest(t *testing.T, gc goldenCase) string {
	t.Helper()
	base, err := workload.ByName(gc.svc)
	if err != nil {
		t.Fatal(err)
	}
	sku, err := platform.ByName(gc.sku)
	if err != nil {
		t.Fatal(err)
	}
	prof := workload.ForPlatform(base, sku.Name)
	srv, err := platform.NewServer(sku, gc.cfg(sku, prof))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(srv, prof, 1)
	if err != nil {
		t.Fatal(err)
	}
	if gc.catWays > 0 {
		if err := m.SetCAT(gc.catWays); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", *m.Characterize()))))
}

// TestWindowGolden pins the window kernel bit for bit: every case's
// WindowRates digest must match testdata/window_golden.txt. Kernel
// optimizations must leave the file untouched; only a deliberate
// physics change may regenerate it, with
//
//	go test ./internal/sim -run TestWindowGolden -update
//
// The characterization cache is off so every case runs its own window.
func TestWindowGolden(t *testing.T) {
	prev := SetCharacterizationCache(false)
	t.Cleanup(func() { SetCharacterizationCache(prev) })

	cases := windowGoldenCases()
	var mu sync.Mutex
	got := make(map[string]string, len(cases))
	t.Run("windows", func(t *testing.T) {
		for _, gc := range cases {
			t.Run(gc.name, func(t *testing.T) {
				t.Parallel()
				d := windowDigest(t, gc)
				mu.Lock()
				got[gc.name] = d
				mu.Unlock()
			})
		}
	})
	if t.Failed() {
		return
	}
	for _, gc := range cases {
		if gc.stock != "" && got[gc.name] == got[gc.stock] {
			t.Errorf("%s: window digest equals %s's; the varied input does not reach the window", gc.name, gc.stock)
		}
	}

	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		fmt.Fprintf(&b, "%s %s\n", name, got[name])
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(windowGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(windowGoldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(windowGoldenFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	if string(raw) == b.String() {
		return
	}
	want := map[string]string{}
	for _, ln := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		name, digest, ok := strings.Cut(ln, " ")
		if !ok {
			t.Fatalf("malformed golden line %q", ln)
		}
		want[name] = digest
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest has no case", name)
		}
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (regenerate with -update)", name)
		} else if w != got[name] {
			t.Errorf("%s: window digest %s, golden %s", name, got[name], w)
		}
	}
}
