package triangle

import (
	"context"
	"fmt"
	"math"

	"degentri/internal/core"
	"degentri/internal/degen"
	"degentri/internal/exp"
	"degentri/internal/passes"
	"degentri/internal/sched"
	"degentri/internal/stream"
)

// TrialsResult reports repeated estimates of one input under keyed seeds,
// together with the resource accounting of the fused execution.
type TrialsResult struct {
	// Trials is the number of estimator runs performed.
	Trials int
	// Mean is the mean of the per-trial estimates.
	Mean float64
	// StdErr is the standard error of the mean (sample standard deviation /
	// √trials; zero for a single trial).
	StdErr float64
	// Estimates holds the per-trial estimates in trial order. Trial i runs
	// with seed Options.Seed + i·7919, so trial 0 reproduces exactly the
	// estimate a plain EstimateFile call with the same options returns.
	Estimates []float64
	// Passes is the total number of logical stream passes: the shared
	// prelude (edge counting, degeneracy peel) plus every trial's own passes.
	Passes int
	// Scans is the number of physical scans of the file that served those
	// passes. All trials run fused on the scan scheduler, so Scans is far
	// below Passes — that is the point of the fused runner.
	Scans int
	// SpaceWords is the peak number of words retained concurrently across
	// all fused trials.
	SpaceWords int64
	// Edges is the number of edges in the stream.
	Edges int
	// DegeneracyBound is the κ the trials sized their samples with (resolved
	// once, shared by every trial).
	DegeneracyBound int
	// DegeneracyApprox reports that the bound came from the streaming
	// peeling approximation.
	DegeneracyApprox bool
	// Aborted reports that at least one trial hit the space cutoff (its
	// estimate is meaningless; the mean then is too).
	Aborted bool
	// Partial reports that at least one trial was interrupted by a deadline
	// or cancellation and degraded to its best accepted estimate (see
	// Result.Partial); the mean then mixes confirmed and partial estimates.
	Partial bool
	// Retries is the number of transient-fault retries across the prelude and
	// every fused scan (resource accounting only; retries never change the
	// estimates).
	Retries int
	// Backend is the storage backend the stream was served from (see
	// Result.Backend).
	Backend string
}

// EstimateFileTrials runs the streaming estimator several times over one
// edge file with keyed per-trial seeds and reports the mean estimate with
// its standard error. The trials share everything shareable: the stream
// length and the degeneracy bound are resolved once (the peel's vertex-ID
// discovery pass is fused into the edge-counting scan), and the trials
// themselves run fused on the pass-fusion scan scheduler — every physical
// scan of the file serves the pending pass of every live trial, so R trials
// cost roughly the scans of one trial rather than R×.
//
// Trial i uses seed Options.Seed + i·7919; trial 0 therefore reproduces the
// exact estimate of a plain EstimateFile call with the same options.
func EstimateFileTrials(path string, opts Options, trials int) (TrialsResult, error) {
	return EstimateFileTrialsCtx(context.Background(), path, opts, trials)
}

// EstimateFileTrialsCtx is EstimateFileTrials honoring a context:
// cancellation fails every live trial's next wave (the whole fused run winds
// down promptly), and trials that had already accepted a probe degrade to
// partial estimates (TrialsResult.Partial). Transient I/O faults are retried
// per Options.RetryAttempts with the count in TrialsResult.Retries.
func EstimateFileTrialsCtx(ctx context.Context, path string, opts Options, trials int) (TrialsResult, error) {
	if trials < 1 {
		return TrialsResult{}, fmt.Errorf("triangle: trials must be positive, got %d", trials)
	}
	fs, err := stream.OpenAutoOpts(path, stream.OpenOptions{DecodeCache: opts.DecodeCache})
	if err != nil {
		return TrialsResult{}, err
	}
	defer fs.Close()
	var src stream.Stream = fs
	if opts.WrapStream != nil {
		src = opts.WrapStream(src)
	}
	retry := retryPolicy(opts)

	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	out := TrialsResult{Trials: trials, Backend: stream.BackendOf(fs)}
	preludePasses := 0

	// Discover m, fusing the degeneracy peel's vertex-ID discovery into the
	// counting scan when both are needed.
	needPeel := opts.Degeneracy <= 0 && !opts.ExactDegeneracy
	m, known := src.Len()
	maxID := -1
	if !known {
		var err error
		var r int
		if needPeel {
			m, maxID, r, err = stream.CountEdgesAndMaxIDCtx(ctx, src, retry)
		} else {
			m, r, err = stream.CountEdgesCtx(ctx, src, retry)
		}
		out.Retries += r
		if err != nil {
			return out, err
		}
		preludePasses++
	}
	if m == 0 {
		return out, ErrNoEdges
	}
	out.Edges = m

	// Resolve κ once, shared by every trial (it is a deterministic function
	// of the stream, so per-trial peels would all produce the same bound).
	kappa := opts.Degeneracy
	switch {
	case kappa > 0:
	case opts.ExactDegeneracy:
		g, err := stream.Materialize(src)
		if err != nil {
			return out, err
		}
		kappa = g.Degeneracy()
		if kappa < 1 {
			kappa = 1
		}
	default:
		dopts := degen.Options{Workers: opts.Workers}
		if maxID >= 0 {
			dopts.KnownVertices = maxID + 1
		}
		peelX := passes.NewDirectCtx(ctx, src, m, opts.Workers, retry)
		dres, err := degen.EstimateOn(peelX, dopts)
		out.Retries += peelX.Retries()
		if err != nil {
			return out, err
		}
		kappa = dres.Kappa
		if kappa < 1 {
			kappa = 1
		}
		preludePasses += dres.Passes
		out.DegeneracyApprox = true
		if opts.MaxSpaceWords > 0 && dres.SpaceWords > opts.MaxSpaceWords {
			out.DegeneracyBound = kappa
			out.SpaceWords = dres.SpaceWords
			out.Passes = preludePasses
			out.Scans = preludePasses
			out.Aborted = true
			return out, nil
		}
		if dres.SpaceWords > out.SpaceWords {
			out.SpaceWords = dres.SpaceWords
		}
	}
	out.DegeneracyBound = kappa

	// One trial = one full estimator run (geometric search unless a guess
	// was supplied) with the trial's keyed seed, fused with its peers. The
	// shared coreConfig mapping is what makes trial 0 bit-identical to a
	// plain EstimateFile run with the same options.
	baseCfg := coreConfig(opts, kappa)
	runTrial := func(c *sched.Client, trial int) (core.Result, error) {
		cfg := baseCfg
		cfg.Seed = seed + uint64(trial)*7919
		if opts.TriangleGuess > 0 {
			cfg.TGuess = opts.TriangleGuess
			est := core.NewEstimator(cfg)
			est.TeeSpace(c.Scheduler().Meter())
			return est.RunOn(c)
		}
		// The geometric search registers its own probe clients and parks the
		// trial client only once the first of them exists, so the trial is
		// never absent from the wave barrier (lockstep fusion holds).
		return core.AutoEstimateFrom(c, cfg)
	}
	// ft.Retries is the scheduler-wide total; per-trial Result.Retries under
	// fusion reports the same shared counter and must not be summed on top.
	ft, err := exp.RunTrialsFusedCtx(ctx, src, m, trials, opts.Workers, retry, runTrial)
	out.Retries += ft.Retries
	if err != nil {
		return out, fmt.Errorf("triangle: %w", err)
	}

	out.Estimates = make([]float64, trials)
	for i, res := range ft.Results {
		out.Estimates[i] = res.Estimate
		out.Passes += res.Passes
		if res.Aborted {
			out.Aborted = true
		}
		if res.Partial {
			out.Partial = true
		}
	}
	out.Passes += preludePasses
	out.Scans = preludePasses + ft.Scans
	if ft.PeakSpaceWords > out.SpaceWords {
		out.SpaceWords = ft.PeakSpaceWords
	}

	var sum float64
	for _, e := range out.Estimates {
		sum += e
	}
	out.Mean = sum / float64(trials)
	if trials > 1 {
		var ss float64
		for _, e := range out.Estimates {
			d := e - out.Mean
			ss += d * d
		}
		out.StdErr = math.Sqrt(ss/float64(trials-1)) / math.Sqrt(float64(trials))
	}
	return out, nil
}
