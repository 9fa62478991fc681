package core

import (
	"errors"
	"time"

	"repro/internal/la"
	"repro/internal/obs"
)

// Evaluation counters. core.factor.runs counts every generate+factor
// execution, however it factors (the serving regression "predict-many after
// fit-once factors exactly once" is asserted against it); the others say how
// the runs beyond the first came about.
var (
	cntFactorRuns      = obs.GetCounter("core.factor.runs")
	cntFactorFail      = obs.GetCounter("core.factor.fail")
	cntNuggetEscalated = obs.GetCounter("core.nugget.escalated")
	cntEvalReplayed    = obs.GetCounter("core.eval.replayed")
	// hstRecovery is the time from an evaluation's first replayed fault to
	// its successful completion.
	hstRecovery = obs.GetHistogram("core.recovery.ns")
)

// The diagonal-regularization ladder: a breakdown multiplies the nugget by
// nuggetEscalation, at most maxNuggetEscalations times, before it is reported
// rather than papered over.
const (
	nuggetEscalation     = 10
	maxNuggetEscalations = 3
)

// recoverLoop is the one recovery rule, whichever way Σ is factored. Σ(θ) is never an
// input: attempt regenerates it from the locations, θ, the nugget and the
// per-tile seeds, factors it and uses the factor, so a failed attempt is
// repaired by running it again and what it left behind is never read.
// A failure is classified once:
//
//   - non-SPD pivot: a property of (θ, nugget), identical on every re-run, so
//     the nugget grows and the attempt re-runs — never at the same nugget;
//   - replayable (the factorizer's verdict: a task panic, a rank death): the
//     attempt re-runs at the same nugget while fewer than maxReplays replays
//     were spent on this evaluation. replayable may prepare the re-run (on
//     ranks it marks the rank dead) and is only asked while budget remains;
//   - anything else surfaces.
//
// Escalations and replays are counted separately; a replayed fault is not a
// factorization failure.
func recoverLoop(maxReplays int, diag *diagnostics, nugget float64, attempt func(nugget float64) error, replayable func(error) bool) error {
	cur := nugget
	escalations, replays := 0, 0
	var firstFault time.Time
	for {
		cntFactorRuns.Inc()
		err := attempt(cur)
		if err == nil {
			if replays > 0 {
				hstRecovery.Observe(time.Since(firstFault).Nanoseconds())
			}
			diag.LastNugget, diag.LastRetries = cur, escalations
			return nil
		}
		diag.LastFailure = err.Error()
		notSPD := errors.Is(err, la.ErrNotPositiveDefinite)
		if !notSPD && replays < maxReplays && replayable(err) {
			if replays == 0 {
				firstFault = time.Now()
			}
			replays++
			cntEvalReplayed.Inc()
			diag.Replays++
			continue
		}
		cntFactorFail.Inc()
		diag.FactorFailures++
		if !notSPD || escalations >= maxNuggetEscalations {
			return err
		}
		cur *= nuggetEscalation
		escalations++
		cntNuggetEscalated.Inc()
		diag.NuggetEscalations++
	}
}
