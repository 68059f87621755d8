package sim

import (
	"reflect"
	"runtime"
	"testing"

	"softsku/internal/cache"
	"softsku/internal/platform"
)

// TestSetCATRemeasureMatchesFresh is the regression test for
// re-measuring a used machine: after SetCAT, the next window must run
// on fresh state, not on the hierarchy, streams, TLBs and prefetch
// tables the previous window left warm. With the cache on, a stale
// window would also be stored under the new CAT key.
func TestSetCATRemeasureMatchesFresh(t *testing.T) {
	for _, cached := range []bool{false, true} {
		withColdCache(t, cached, func() {
			used := machineFor(t, "Web", "Skylake18", nil)
			used.Characterize()
			if err := used.SetCAT(8); err != nil {
				t.Fatal(err)
			}
			got := used.Characterize()

			ResetCharacterizationCache()
			fresh := machineFor(t, "Web", "Skylake18", nil)
			if err := fresh.SetCAT(8); err != nil {
				t.Fatal(err)
			}
			want := fresh.Characterize()
			if !reflect.DeepEqual(got, want) {
				gc, gd := got.CacheMPKI(cache.LLC)
				wc, wd := want.CacheMPKI(cache.LLC)
				t.Errorf("cache=%v: re-measured LLC MPKI %.3f, fresh machine %.3f", cached, gc+gd, wc+wd)
			}
		})
	}
}

// TestSetCATValidatesEagerly: an out-of-range CAT limit fails at the
// SetCAT call, with the cache model's error, and leaves the machine
// unchanged.
func TestSetCATValidatesEagerly(t *testing.T) {
	m := machineFor(t, "Feed2", "Skylake18", nil)
	ways := m.srv.SKU().LLCWays
	h := cache.NewHierarchy(m.srv.SKU(), 1)
	for _, n := range []int{0, ways + 1} {
		want := h.ApplyCAT(n)
		if want == nil {
			t.Fatalf("fixture: ApplyCAT(%d) must fail", n)
		}
		err := m.SetCAT(n)
		if err == nil || err.Error() != want.Error() {
			t.Errorf("SetCAT(%d): err = %v, want %v", n, err, want)
		}
		if m.catWays != 0 {
			t.Errorf("SetCAT(%d) changed the way limit to %d", n, m.catWays)
		}
	}
}

// TestCachedMachineAllocation pins lazy machine state: building a
// machine whose window the characterization cache already holds and
// characterizing it must not allocate a cache hierarchy (several MiB
// for Web on Skylake18).
func TestCachedMachineAllocation(t *testing.T) {
	const limit = 256 << 10
	sku, prof, cfg := keyInputs(t, "Web", "Skylake18")
	srv, err := platform.NewServer(sku, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withColdCache(t, true, func() {
		machineFor(t, "Web", "Skylake18", nil).Characterize()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := NewMachine(srv, prof, 1234)
		if err != nil {
			t.Fatal(err)
		}
		m.Characterize()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("NewMachine + cached Characterize allocated %d KiB", got>>10)
		if got >= limit {
			t.Errorf("NewMachine + cached Characterize allocated %d KiB, want < %d KiB", got>>10, limit>>10)
		}
	})
}
