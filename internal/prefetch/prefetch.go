// Package prefetch implements the four hardware prefetchers of the
// paper's platforms (§5(5)): the L2 hardware (stream) prefetcher, the
// L2 adjacent-cache-line prefetcher, the L1-D DCU next-line
// prefetcher, and the L1-D DCU IP-stride prefetcher.
//
// Prefetchers observe each core's demand-access stream and speculate
// lines into the cache hierarchy. Their benefit (miss coverage) and
// cost (extra DRAM traffic) are both emergent: the Fig 17 result —
// turning prefetchers off wins only on bandwidth-starved Broadwell —
// falls out of the interaction with internal/mem's latency curve.
package prefetch

import (
	"softsku/internal/cache"
	"softsku/internal/knob"
)

// Stats counts prefetcher activity for one engine.
type Stats struct {
	Issued     uint64 // prefetches issued into the hierarchy
	Moved      uint64 // prefetches that actually installed a line
	FromMemory uint64 // prefetch fills sourced from DRAM (bandwidth cost)
}

const (
	streamTableSize = 16 // tracked 4 KiB page streams per core
	ipTableSize     = 64 // IP-stride entries per core
	streamDepth     = 4  // lines ahead once a stream is confirmed
	lineBytes       = 64
	pageBytes       = 4096
)

type streamEntry struct {
	lastLine uint64 // line index within page
	dir      int    // +1 ascending, -1 descending, 0 unknown
	score    int    // confirmations; >= 1 triggers prefetch
	stamp    uint64
}

type ipEntry struct {
	ip       uint64
	lastAddr uint64
	stride   int64
	score    int
}

// Engine is one core's prefetcher complex. It is driven by the
// simulator on every demand access and issues prefetches into the
// shared hierarchy.
type Engine struct {
	mask  knob.PrefetchMask
	h     *cache.Hierarchy
	core  int
	clock uint64

	// streamPages holds each stream entry's page+1 (0 = empty) apart
	// from the rest of the entry, so the per-access match is a scan
	// over one small array.
	streamPages [streamTableSize]uint64
	streams     [streamTableSize]streamEntry
	ips         [ipTableSize]ipEntry

	stats Stats
}

// NewEngine builds a prefetcher complex for core, issuing into h with
// the given enable mask.
func NewEngine(h *cache.Hierarchy, core int, mask knob.PrefetchMask) *Engine {
	return &Engine{mask: mask, h: h, core: core}
}

// SetMask reconfigures which prefetchers are enabled (an MSR write).
func (e *Engine) SetMask(mask knob.PrefetchMask) { e.mask = mask }

// Mask returns the current enable mask.
func (e *Engine) Mask() knob.PrefetchMask { return e.mask }

// Stats returns a copy of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// ResetStats zeroes the counters.
func (e *Engine) ResetStats() { e.stats = Stats{} }

// OnAccess observes one demand access (after the hierarchy has
// serviced it) and issues any triggered prefetches. ip identifies the
// accessing instruction for the IP-stride prefetcher; level is where
// the demand access hit.
func (e *Engine) OnAccess(addr uint64, kind cache.Kind, ip uint64, level cache.Level) {
	if e.mask == knob.PrefetchNone {
		return
	}
	e.clock++
	if e.mask.Has(knob.PrefetchL2Adj) && level >= cache.LLC {
		// Fetch the buddy line of the 128-byte aligned pair.
		buddy := addr ^ lineBytes
		e.issueL2(buddy&^uint64(lineBytes-1), kind)
	}
	if e.mask.Has(knob.PrefetchL2HW) {
		e.stream(addr, kind)
	}
	if kind == cache.Data {
		if e.mask.Has(knob.PrefetchDCU) && level >= cache.L2 {
			// Next-line into L1-D on an L1 miss.
			e.issueL1(addr+lineBytes, kind)
		}
		if e.mask.Has(knob.PrefetchDCUIP) {
			e.ipStride(addr, ip, kind)
		}
	}
}

// stream implements the L2 hardware prefetcher: detect monotone line
// streams within a 4 KiB page and run ahead of them.
func (e *Engine) stream(addr uint64, kind cache.Kind) {
	page := addr / pageBytes
	line := (addr % pageBytes) / lineBytes
	// Find the page's stream entry, or replace the least recently used
	// one (the first with the minimum stamp).
	idx := -1
	for i, p := range e.streamPages {
		if p == page+1 {
			idx = i
			break
		}
	}
	if idx < 0 {
		victim := 0
		for i := range e.streams {
			if e.streams[i].stamp < e.streams[victim].stamp {
				victim = i
			}
		}
		e.streamPages[victim] = page + 1
		e.streams[victim] = streamEntry{lastLine: line, stamp: e.clock}
		return
	}
	s := &e.streams[idx]
	s.stamp = e.clock
	dir := 0
	switch {
	case line == s.lastLine+1:
		dir = 1
	case line+1 == s.lastLine:
		dir = -1
	}
	if dir == 0 || (s.dir != 0 && dir != s.dir) {
		s.dir, s.score, s.lastLine = dir, 0, line
		return
	}
	s.dir = dir
	s.score++
	s.lastLine = line
	if s.score >= 1 {
		for d := 1; d <= streamDepth; d++ {
			next := int64(line) + int64(dir)*int64(d)
			if next < 0 || next >= pageBytes/lineBytes {
				break // streams do not cross page boundaries
			}
			e.issueL2(page*pageBytes+uint64(next)*lineBytes, kind)
		}
	}
}

// ipStride implements the DCU IP prefetcher: per-instruction stride
// detection with a small direct-mapped table.
func (e *Engine) ipStride(addr, ip uint64, kind cache.Kind) {
	ent := &e.ips[ip%ipTableSize]
	if ent.ip != ip {
		*ent = ipEntry{ip: ip, lastAddr: addr}
		return
	}
	stride := int64(addr) - int64(ent.lastAddr)
	ent.lastAddr = addr
	if stride == 0 {
		return
	}
	if stride == ent.stride {
		ent.score++
	} else {
		ent.stride = stride
		ent.score = 0
	}
	if ent.score >= 2 {
		target := int64(addr) + stride
		if target > 0 {
			e.issueL1(uint64(target), kind)
		}
	}
}

func (e *Engine) issueL2(addr uint64, kind cache.Kind) {
	e.stats.Issued++
	moved, fromMem := e.h.PrefetchL2(e.core, addr, kind)
	if moved {
		e.stats.Moved++
	}
	if fromMem {
		e.stats.FromMemory++
	}
}

func (e *Engine) issueL1(addr uint64, kind cache.Kind) {
	e.stats.Issued++
	moved, fromMem := e.h.PrefetchL1(e.core, addr, kind)
	if moved {
		e.stats.Moved++
	}
	if fromMem {
		e.stats.FromMemory++
	}
}
