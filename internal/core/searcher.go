package core

import (
	"softsku/internal/abtest"
	"softsku/internal/decision"
	"softsku/internal/knob"
	"softsku/internal/telemetry"
)

// The search layer (ROADMAP item 3). A Searcher decides *which*
// configurations to measure; runSearch is the one driver that decides
// *how* — it owns the three-phase trial runtime (trial.go), SKU
// validation, reboot accounting, span lifecycle, and every ledger
// append, so all searchers inherit the determinism contract for free:
//
//   - Propose runs on the serial phase, so any randomness a searcher
//     draws must come from rng streams derived from (run seed, search
//     label) — never from execution order or a global source.
//   - Trial labels seed the trials' own streams, so a searcher's label
//     scheme is part of its observable behaviour (DESIGN.md §10).
//   - Observe sees outcomes in arm order, exactly as a serial run
//     would have produced them, and returns its verdicts as data; the
//     driver replays them into spans, logs, and the ledger in one
//     fixed order.
//
// Every SweepMode is a Searcher: independentSearcher and
// exhaustiveSearcher (musku.go) map the space for the paper's sweeps,
// hillSearcher (search.go), halvingSearcher (searcher_halving.go), and
// cemSearcher (searcher_cem.go) optimize adaptively.

// SearchArm is one candidate configuration a searcher wants measured
// against the round's control.
type SearchArm struct {
	// Label uniquely names the trial within the run and seeds its rng
	// streams; changing a label scheme changes measured outcomes.
	Label  string
	Config knob.Config
	// Knob/Setting name the arm in ledger events: the moved knob and
	// setting for single-knob arms, or "" and a stable arm tag for
	// multi-knob arms.
	Knob    string
	Setting string
}

// SearchRound is one round of arms that may run concurrently because
// no arm's spec depends on another's outcome.
type SearchRound struct {
	Span    string      // telemetry span name, e.g. "sweep.round3"
	Label   string      // ledger group label, e.g. "hill/3"
	Control knob.Config // configuration every arm is measured against
	// Knob names the one knob every arm moves (the independent sweep's
	// per-knob rounds): the round's sweep_started event then carries
	// the knob and the control's setting for it instead of the whole
	// control configuration. nil when arms move different knobs.
	Knob *knob.ID
	Arms []SearchArm
	// AB overrides the run's A/B budget for this round's trials —
	// successive halving shortens early rungs with it. nil keeps the
	// run's configuration.
	AB *abtest.Config
}

// ArmOutcome is one arm's measurement as seen by Observe. Exactly one
// of Pruned/TwinPruned/Skipped is set when Outcome is absent: pruned
// arms failed SKU validation and never ran; twin-pruned arms were
// discarded on a tiered-fidelity prediction before any window ran;
// skipped arms faulted persistently under chaos and were abandoned.
type ArmOutcome struct {
	Outcome    abtest.Outcome
	Pruned     bool
	TwinPruned bool
	Skipped    bool
}

// Measured reports whether the arm produced a usable outcome.
func (o ArmOutcome) Measured() bool { return !o.Pruned && !o.TwinPruned && !o.Skipped }

// SpanAttr is one key/value annotation for the round's span, applied
// in order.
type SpanAttr struct {
	Key   string
	Value interface{}
}

// RoundVerdict is everything a searcher decided about a round,
// returned as data so the driver can replay it deterministically.
type RoundVerdict struct {
	// Accepted marks the arms kept by this round (hill's winning move,
	// halving's surviving half, CEM's elite fraction); every other
	// measured arm is recorded as rejected. nil rejects all.
	Accepted []bool
	Attrs    []SpanAttr       // round-span annotations, in order
	Events   []decision.Event // extra ledger events under the round group
	Logs     []string         // progress lines, emitted after the span ends
}

// Searcher is a pluggable design-space optimizer. The driver calls
// Propose/Observe in lockstep until Propose returns no rounds (round
// budget spent) or Done reports the searcher converged on its own
// terms.
type Searcher interface {
	// Name labels the searcher in logs and terminal ledger events.
	Name() string
	// Propose returns the next batch of rounds, numbered from round,
	// or nil when the searcher has no more rounds to spend (converged,
	// or out of budget). A batch holds several rounds only when none
	// depends on another's outcome: their trials share one parallel
	// batch.
	Propose(round int) []*SearchRound
	// Observe receives one round's outcomes, indexed like its Arms, and
	// returns the searcher's verdicts. Called once per proposed round,
	// in round order, on the serial merge phase.
	Observe(round int, outs []ArmOutcome) RoundVerdict
	// Done reports convergence, checked after each batch. An empty
	// Propose with Done()==false means the round budget ran out first —
	// the driver records a terminal budget_exhausted event so the ledger
	// never just truncates.
	Done() bool
	// Best returns the best configuration found so far and its gain
	// over the baseline in percent (compounded across moves for
	// searchers that chain rounds).
	Best() (knob.Config, float64)
}

// runSearch drives one Searcher to completion over the parallel trial
// runtime. Per batch: build every round's specs serially in round and
// arm order (validate, count reboots, split chaos streams), fan all
// the batch's trials out in one runTrials call, then per round merge
// in arm order, hand the outcomes to Observe, and replay its verdict
// into the span, ledger, and log. eval is the tiered-fidelity ladder
// consulted before any spec exists; nil measures every validated arm.
func (t *Tool) runSearch(res *Result, s Searcher, eval Evaluator) (knob.Config, error) {
	rounds := 0
	for batch := s.Propose(0); len(batch) > 0; batch = s.Propose(rounds) {
		var specs []trialSpec
		runs := make([]roundRun, len(batch))
		for i, rd := range batch {
			runs[i] = t.planRound(rd, eval, &specs)
		}
		results := t.runTrials(specs)
		for i := range runs {
			if err := t.finishRound(s, rounds+i, &runs[i], specs, results, eval); err != nil {
				for _, r := range runs[i+1:] {
					r.span.End()
				}
				best, _ := s.Best()
				return best, err
			}
		}
		rounds += len(batch)
		if s.Done() {
			break
		}
	}
	best, gain := s.Best()
	res.ExhaustiveBest = gain
	if !s.Done() {
		// The round budget ran out before the searcher's own stopping
		// rule fired. Without a terminal event the ledger would just
		// truncate — indistinguishable from a crash in `skutrace tree`.
		if t.rec != nil {
			t.rec.Record(t.decRoot, decision.BudgetExhausted(s.Name(), rounds, best.String()))
		}
		t.logf("%s: round budget exhausted after %d rounds (best so far %s)", s.Name(), rounds, best)
	}
	return best, nil
}

// roundRun is one proposed round between its spec build and its merge.
type roundRun struct {
	rd     *SearchRound
	span   *telemetry.Span
	specOf []int            // arm -> index into the batch's specs; -1 never ran
	outs   []ArmOutcome     // indexed like rd.Arms
	pruned []decision.Event // twin_pruned events, recorded under the round
}

// planRound is the round's serial spec-build phase: it prunes
// unrealizable arms, lets eval veto predicted losers, counts reboots,
// and appends one spec per surviving arm to specs.
func (t *Tool) planRound(rd *SearchRound, eval Evaluator, specs *[]trialSpec) roundRun {
	r := roundRun{
		rd:     rd,
		span:   t.span.StartChild(rd.Span, "sweep"),
		specOf: make([]int, len(rd.Arms)),
		outs:   make([]ArmOutcome, len(rd.Arms)),
	}
	save := t.in.AB
	if rd.AB != nil {
		t.in.AB = *rd.AB
	}
	defer func() { t.in.AB = save }()
	// Tiered-fidelity ladder (DESIGN.md §16): score the round's control
	// once, then let predictions veto arms before a spec — and hence a
	// window — exists for them. All on the serial phase, so the prune
	// set is fixed by the round structure, never by worker scheduling.
	var ctrlScore float64
	var ctrlRung string
	ctrlOK := false
	if eval != nil {
		ctrlScore, ctrlRung, ctrlOK = eval.Score(rd.Control)
		ctrlOK = ctrlOK && ctrlScore > 0
	}
	for i, arm := range rd.Arms {
		r.specOf[i] = -1
		if err := t.sku.Validate(arm.Config); err != nil {
			mConfigsPruned.Inc()
			r.outs[i].Pruned = true
			continue
		}
		if ctrlOK {
			if armScore, rung, ok := eval.Score(arm.Config); ok {
				margin := eval.Margin(rung)
				if m := eval.Margin(ctrlRung); m > margin {
					margin = m
				}
				delta := (armScore - ctrlScore) / ctrlScore * 100
				if delta < -margin {
					mConfigsTwinPruned.Inc()
					r.outs[i].TwinPruned = true
					r.pruned = append(r.pruned, decision.TwinPruned(
						arm.Knob, arm.Setting, arm.Label, delta, margin, rung,
						ctrlScore, armScore, t.in.Metric.String()))
					continue
				}
			}
		}
		mConfigsValidated.Inc()
		for _, id := range knob.Diff(rd.Control, arm.Config) {
			if id.RequiresReboot() {
				t.reboots++
				break
			}
		}
		*specs = append(*specs, t.newSpec(r.span, arm.Label, rd.Control, arm.Config))
		r.specOf[i] = len(*specs) - 1
	}
	return r
}

// finishRound is the round's serial merge phase: it records the round
// group, merges and records every trial in arm order, hands the
// outcomes to Observe, and replays the verdict. The round span is
// ended on every path.
func (t *Tool) finishRound(s Searcher, round int, r *roundRun, specs []trialSpec, results []trialResult, eval Evaluator) error {
	rd, rs := r.rd, r.span
	roundSeq := -1
	if t.rec != nil {
		group, ctrl := "", rd.Control.String()
		if rd.Knob != nil {
			group, ctrl = rd.Knob.String(), rd.Control.Get(*rd.Knob).Name
		}
		roundSeq = t.rec.Record(t.decRoot, decision.SweepStarted(rd.Label, group, ctrl))
		for _, e := range r.pruned {
			t.rec.Record(roundSeq, e)
		}
	}
	seqs := make([]int, len(rd.Arms))
	recorded := make([]bool, len(rd.Arms))
	for i, arm := range rd.Arms {
		si := r.specOf[i]
		if si < 0 {
			continue
		}
		out, err := t.mergeTrial(specs[si], results[si])
		if err != nil {
			if t.skipFault(err, arm.Setting) {
				t.recordSkip(roundSeq, specs[si], arm.Setting, err)
				r.outs[i].Skipped = true
				continue
			}
			rs.End()
			return err
		}
		seqs[i] = t.recordTrial(roundSeq, specs[si], results[si], arm.Knob, arm.Setting)
		r.outs[i].Outcome = out
		recorded[i] = true
	}
	if eval != nil {
		// Every window the round measured doubles as a cross-check
		// sample: the twin predicted these configurations microseconds
		// ago, the simulator just told the truth.
		eval.CrossCheck(rd.Control)
		for i, arm := range rd.Arms {
			if recorded[i] {
				eval.CrossCheck(arm.Config)
			}
		}
	}
	v := s.Observe(round, r.outs)
	if t.rec != nil {
		for i, arm := range rd.Arms {
			if !recorded[i] {
				continue
			}
			o := r.outs[i].Outcome
			if i < len(v.Accepted) && v.Accepted[i] {
				t.rec.Record(seqs[i], decision.ArmAccepted(arm.Knob, arm.Setting, o.DeltaPct))
			} else {
				t.rec.Record(seqs[i], decision.ArmRejected(arm.Knob, arm.Setting,
					o.DeltaPct, o.PValue, o.Significant))
			}
		}
	}
	for _, a := range v.Attrs {
		rs.Set(a.Key, a.Value)
	}
	rs.End()
	if t.rec != nil {
		for _, e := range v.Events {
			t.rec.Record(roundSeq, e)
		}
	}
	for _, line := range v.Logs {
		t.logf("%s", line)
	}
	return nil
}
