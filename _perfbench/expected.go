package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// expectedJSON records, for the default seed (1) and one held-out seed
// (7), every checked output of each workload: the char-fleet window and
// peak-load digests, the tune-web soft SKU, gain, A/B hours, window and
// prune counts and ledger digest, and the fleet-soak report and ledger
// digest. A change that claims to be speed-only must reproduce them.
//
//go:embed expected.json
var expectedJSON []byte

// expected maps scale → workload → seed → fact → value. Only the full
// scale is recorded; the self-test supplies its own tiny-scale facts.
type expected map[string]map[string]map[string]map[string]string

func loadExpected() (expected, error) {
	var e expected
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return e, nil
}

// facts returns the recorded facts for a run: those of its seed, or
// those recorded under "*" for a workload whose inputs take no seed.
func (e expected) facts(o options) map[string]string {
	if f, ok := e[o.scale][o.workload]["*"]; ok {
		return f
	}
	return e[o.scale][o.workload][strconv.FormatUint(o.seed, 10)]
}

// checks is the number of recorded facts a run is compared against.
func (e expected) checks(o options) int { return len(e.facts(o)) }

// check compares an operation's facts against the recorded ones, one
// failure per fact that is missing or differs.
func (e expected) check(o options, r *childResult) []string {
	want := e.facts(o)
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var failures []string
	for _, k := range keys {
		if got, ok := r.Facts[k]; !ok || got != want[k] {
			failures = append(failures, fmt.Sprintf("%s seed %d: %s = %q, expected %q", o.workload, o.seed, k, got, want[k]))
		}
	}
	return failures
}
