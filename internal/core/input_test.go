package core

import (
	"strings"
	"testing"

	"softsku/internal/knob"
)

func TestParseInputFull(t *testing.T) {
	in, err := ParseInput(`
# µSKU input file
microservice = Web
platform     = Skylake18
sweep        = independent
metric       = mips
knobs        = thp, shp
seed         = 42
max_samples  = 5000
`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Microservice != "Web" || in.Platform != "Skylake18" {
		t.Fatalf("target: %+v", in)
	}
	if in.Sweep != SweepIndependent || in.Metric != MetricMIPS {
		t.Fatalf("modes: %+v", in)
	}
	if len(in.Knobs) != 2 || in.Knobs[0] != knob.THP || in.Knobs[1] != knob.SHP {
		t.Fatalf("knobs: %v", in.Knobs)
	}
	if in.Seed != 42 || in.AB.MaxSamples != 5000 {
		t.Fatalf("seed/samples: %+v", in)
	}
}

func TestParseInputDefaults(t *testing.T) {
	in, err := ParseInput("microservice = Ads1\n")
	if err != nil {
		t.Fatal(err)
	}
	if in.Sweep != SweepIndependent || in.Metric != MetricMIPS || in.Seed != 1 {
		t.Fatalf("defaults: %+v", in)
	}
	if in.AB.MaxSamples != 30000 {
		t.Fatalf("default sample cap: %d", in.AB.MaxSamples)
	}
}

func TestParseInputErrors(t *testing.T) {
	cases := []string{
		"",                              // missing microservice
		"microservice Web",              // no equals
		"microservice = Web\nsweep = x", // bad sweep
		"microservice = Web\nmetric = latency",
		"microservice = Web\nknobs = voltage",
		"microservice = Web\nseed = abc",
		"microservice = Web\nmax_samples = -1",
		"microservice = Web\nunknownkey = 1",
	}
	for i, c := range cases {
		if _, err := ParseInput(c); err == nil {
			t.Errorf("case %d: expected error for %q", i, c)
		}
	}
}

func TestParseInputSweepModes(t *testing.T) {
	for _, m := range []string{"independent", "exhaustive", "hillclimb", "halving", "cem"} {
		in, err := ParseInput("microservice = Web\nsweep = " + m)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.EqualFold(in.Sweep.String(), m) {
			t.Fatalf("round trip %q -> %v", m, in.Sweep)
		}
	}
}

func TestParseSweepMode(t *testing.T) {
	cases := []struct {
		val  string
		want SweepMode
		err  bool
	}{
		{"hill", SweepHillClimb, false},
		{"hill-climb", SweepHillClimb, false},
		{"hill_climb", SweepHillClimb, false},
		{"HALVING", SweepHalving, false},
		{"successive-halving", SweepHalving, false},
		{"cem", SweepCEM, false},
		{"population", SweepCEM, false},
		{"independent", SweepIndependent, false},
		{"exhaustive", SweepExhaustive, false},
		{"bogus", 0, true},
	}
	for _, c := range cases {
		got, err := ParseSweepMode(c.val)
		if c.err {
			if err == nil {
				t.Errorf("ParseSweepMode(%q): expected error", c.val)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseSweepMode(%q) = %v, %v; want %v", c.val, got, err, c.want)
		}
	}
}

// TestParseInputSearchKey: the adaptive searchers share the sweep key
// (with the "hill" short form); there is no separate search key.
func TestParseInputSearchKey(t *testing.T) {
	in, err := ParseInput("microservice = Web\nsweep = hill")
	if err != nil {
		t.Fatal(err)
	}
	if in.Sweep != SweepHillClimb {
		t.Fatalf("sweep = hill -> %v", in.Sweep)
	}
	if _, err := ParseInput("microservice = Web\nsearch = hill"); err == nil {
		t.Fatal("search is not an input key; sweep names every mode")
	}
}
