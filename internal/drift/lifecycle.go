package drift

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"sync"
	"sync/atomic"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/features"
	"knowphish/internal/ml"
	"knowphish/internal/ranking"
	"knowphish/internal/registry"
	"knowphish/internal/store"
	"knowphish/internal/webpage"
)

// Defaults for LifecycleConfig zero values.
const (
	// DefaultEpsilon is the promotion-gate tolerance: the challenger's
	// held-out AUC and accuracy may trail the champion's by at most this
	// much.
	DefaultEpsilon = 0.02
	// DefaultMinShadow is how many live shadow scores a challenger needs
	// before the automatic loop considers promoting it.
	DefaultMinShadow = 50
	// DefaultRetrainMax caps how many verdict-store records one retrain
	// pulls.
	DefaultRetrainMax = 2048
	// DefaultHoldout is the held-out fraction of the retrain corpus.
	DefaultHoldout = 0.25
	// retrainScanPage is the cursor page size retrain uses when walking
	// the verdict store; pages keep memory flat however many records
	// DefaultRetrainMax admits.
	retrainScanPage = 256
)

// ErrRetrainRunning reports a retrain request while one is in flight —
// retraining is single-flight by design.
var ErrRetrainRunning = errors.New("drift: a retrain is already running")

// ErrGateRefused reports a promotion blocked by the gate; the wrapped
// message carries the failing metric.
var ErrGateRefused = errors.New("drift: promotion gate refused")

// LifecycleConfig assembles a Lifecycle.
type LifecycleConfig struct {
	// Registry is the versioned model store serving the champion.
	// Required.
	Registry *registry.Registry
	// Store is the durable verdict log retraining draws its corpus
	// from (any store.Backend engine). Required for retraining.
	Store store.Backend
	// Fetcher re-crawls stored URLs into snapshots for retraining.
	// Required for retraining.
	Fetcher crawl.Fetcher
	// Rank is the popularity list wired into retrained extractors and
	// the held-out evaluation (may be nil).
	Rank *ranking.List
	// Monitor tunes the drift monitor.
	Monitor Config
	// ShadowFraction is the share of observed feed traffic the current
	// challenger re-scores in shadow (0 → no shadow scoring; capped to
	// [0,1]).
	ShadowFraction float64
	// Epsilon is the promotion-gate tolerance (0 → DefaultEpsilon).
	Epsilon float64
	// MinShadow gates automatic promotion on live exposure
	// (0 → DefaultMinShadow).
	MinShadow int
	// AutoRetrain closes the loop: a drift flag triggers a background
	// retrain, and a challenger that passes the gate after MinShadow
	// shadow scores is promoted automatically. Without it the lifecycle
	// only watches and reports; retrain/promote happen through the API.
	AutoRetrain bool
	// GBM overrides the retrain boosting configuration (zero value →
	// the champion's own training configuration).
	GBM ml.GBMConfig
	// Seed drives shadow sampling and the retrain train/holdout split.
	Seed int64
	// Logger receives structured lifecycle-transition logs: drift flags,
	// retrain outcomes, challenger installs/retirements and promotions
	// (nil → discard).
	Logger *slog.Logger
}

// Evaluation compares champion and challenger on the same held-out
// split of a retrain corpus — the promotion gate's evidence.
type Evaluation struct {
	// Holdout is the held-out example count.
	Holdout int `json:"holdout"`
	// ChampionVersion and ChallengerVersion name the compared models.
	ChampionVersion   string `json:"champion_version"`
	ChallengerVersion string `json:"challenger_version"`

	ChampionAUC        float64 `json:"champion_auc"`
	ChallengerAUC      float64 `json:"challenger_auc"`
	ChampionAccuracy   float64 `json:"champion_accuracy"`
	ChallengerAccuracy float64 `json:"challenger_accuracy"`
}

// Decision is a promotion-gate ruling.
type Decision struct {
	// Promote is the ruling.
	Promote bool `json:"promote"`
	// Reason explains it, pass or fail.
	Reason string `json:"reason"`
	// Evaluation is the evidence the gate read (nil when none exists).
	Evaluation *Evaluation `json:"evaluation,omitempty"`
}

// LifecycleStatus is the lifecycle introspection document served at
// GET /v2/models and folded into /metrics.
type LifecycleStatus struct {
	Drift Status `json:"drift"`
	// ChampionVersion is the registry version serving traffic.
	ChampionVersion string `json:"champion_version,omitempty"`
	// ChallengerVersion is the candidate awaiting promotion ("" when
	// none).
	ChallengerVersion string `json:"challenger_version,omitempty"`
	// Evaluation is the held-out comparison from the last retrain.
	Evaluation *Evaluation `json:"evaluation,omitempty"`

	ShadowFraction float64 `json:"shadow_fraction"`
	// ShadowScored counts challenger shadow scores since it was
	// installed; ShadowAgreement is the fraction whose thresholded call
	// matched the champion's.
	ShadowScored    int64   `json:"shadow_scored"`
	ShadowAgreement float64 `json:"shadow_agreement"`

	Retrains        int64 `json:"retrains"`
	RetrainFailures int64 `json:"retrain_failures"`
	Promotions      int64 `json:"promotions"`
	// ChallengersRetired counts challengers discarded by the promotion
	// gate after their live exposure — the signal that retraining keeps
	// producing models worse than the champion.
	ChallengersRetired int64 `json:"challengers_retired,omitempty"`
	// Retraining reports an in-flight background retrain.
	Retraining  bool `json:"retraining"`
	AutoRetrain bool `json:"auto_retrain"`
	// Cooldown is how many more observed verdicts the automatic loop
	// waits before its next retrain attempt (after a failed retrain or a
	// retired challenger).
	Cooldown  int64  `json:"cooldown,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Lifecycle closes the loop from live traffic to model promotion:
// observe (drift monitor) → retrain (from the verdict store) → shadow
// (challenger on a fraction of feed traffic) → gate (held-out AUC and
// accuracy within epsilon of the champion) → promote (registry hot
// swap). All methods are safe for concurrent use; OnVerdict is the
// feed-side hook and stays cheap unless it is the sampled shadow
// fraction.
type Lifecycle struct {
	cfg     LifecycleConfig
	monitor *Monitor

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	retraining atomic.Bool
	// promoting single-flights the automatic promotion: many feed
	// workers observe verdicts concurrently, and only one should carry a
	// gate-passing challenger through Promote (the losers would surface
	// spurious "no pending evaluation" errors).
	promoting atomic.Bool
	// cooldown backs the automatic loop off after a failed retrain or a
	// retired challenger: it counts down one per observed verdict, and
	// while positive OnVerdict starts no retrain. Counting traffic
	// instead of wall time keeps the behavior deterministic under test
	// and proportional to how fast new evidence arrives.
	cooldown atomic.Int64

	mu         sync.Mutex
	challenger *registry.Model
	eval       *Evaluation
	rng        *rand.Rand
	lastErr    string

	shadowScored atomic.Int64
	shadowAgreed atomic.Int64
	retrains     atomic.Int64
	retrainFails atomic.Int64
	promotions   atomic.Int64
	retired      atomic.Int64
}

// NewLifecycle validates the configuration and builds the controller.
func NewLifecycle(cfg LifecycleConfig) (*Lifecycle, error) {
	if cfg.Registry == nil {
		return nil, errors.New("drift: LifecycleConfig.Registry is required")
	}
	if cfg.ShadowFraction < 0 {
		cfg.ShadowFraction = 0
	}
	if cfg.ShadowFraction > 1 {
		cfg.ShadowFraction = 1
	}
	if cfg.Epsilon <= 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	if cfg.MinShadow <= 0 {
		cfg.MinShadow = DefaultMinShadow
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logger == nil {
		// Not obs.NopLogger: this package declares its own type named
		// obs, so the import would shadow it.
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	l := &Lifecycle{
		cfg:     cfg,
		monitor: NewMonitor(cfg.Monitor),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	return l, nil
}

// Monitor exposes the drift monitor (for observation paths that bypass
// OnVerdict).
func (l *Lifecycle) Monitor() *Monitor { return l.monitor }

// Close stops background retraining and waits for it to exit.
func (l *Lifecycle) Close() {
	l.cancel()
	l.wg.Wait()
}

// OnVerdict is the feed hook: every successfully scored URL flows
// through it. It feeds the drift monitor, shadow-scores the sampled
// fraction with the current challenger, and — when AutoRetrain is on —
// kicks off a background retrain on a drift flag and promotes a
// challenger that has earned it.
func (l *Lifecycle) OnVerdict(snap *webpage.Snapshot, v core.Verdict) {
	l.monitor.Observe(v.Score, v.FinalPhish, v.Vector)

	if ch := l.challengerModel(); ch != nil && l.sampleShadow() {
		l.shadowScore(ch, snap, v)
	}

	if !l.cfg.AutoRetrain {
		return
	}
	if c := l.cooldown.Load(); c > 0 {
		// Backing off after a failed retrain or a retired challenger:
		// the drift flag is latched, so without a cooldown every verdict
		// would relaunch a doomed retrain (store still single-class,
		// fetcher still down, ...). One window of fresh traffic must
		// pass before the next attempt.
		l.cooldown.Add(-1)
		return
	}
	if l.monitor.Flagged() && l.challengerModel() == nil && !l.retraining.Load() {
		st := l.monitor.Status()
		l.cfg.Logger.Warn("drift flagged; starting background retrain",
			"score_psi", st.ScorePSI, "max_feature_psi", st.MaxFeaturePSI, "rate_shift", st.RateShift)
		_ = l.RetrainAsync() // already-running is fine; failures land in LastError
	}
	if ch := l.challengerModel(); ch != nil && l.shadowScored.Load() >= int64(l.cfg.MinShadow) {
		if !l.promoting.CompareAndSwap(false, true) {
			return
		}
		defer l.promoting.Store(false)
		d := l.Decide()
		switch {
		case d.Promote:
			if _, err := l.Promote(ch.Manifest.Version, false); err != nil {
				l.setLastErr(fmt.Sprintf("promote: %v", err))
			}
		default:
			// The gate's evidence is the held-out evaluation, fixed at
			// retrain time — once the challenger has had its live
			// exposure and still fails, it will fail forever. Retire it
			// so the loop can retrain on fresher data after a cooldown,
			// instead of wedging with a permanent also-ran.
			l.retireChallenger(ch, d.Reason)
		}
	}
}

// retireChallenger discards a gate-failed challenger (its artifact
// stays in the registry for inspection) and schedules the next retrain
// attempt one window of traffic later.
func (l *Lifecycle) retireChallenger(ch *registry.Model, reason string) {
	l.mu.Lock()
	if l.challenger == ch {
		l.challenger = nil
		l.eval = nil
	}
	l.mu.Unlock()
	l.retired.Add(1)
	l.cfg.Logger.Info("challenger retired by the promotion gate",
		"version", ch.Manifest.Version, "reason", reason)
	l.setLastErr(fmt.Sprintf("challenger %s retired by the promotion gate: %s", ch.Manifest.Version, reason))
	l.cooldown.Store(int64(l.monitor.Window()))
}

// sampleShadow flips the shadow-fraction coin.
func (l *Lifecycle) sampleShadow() bool {
	if l.cfg.ShadowFraction <= 0 {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64() < l.cfg.ShadowFraction
}

// shadowScore runs the challenger on a page the champion already
// scored, detector-only (target identification ran once; the comparison
// is between models, not pipelines). Its cost is borne by the feed
// worker that sampled it — shadow traffic competes with real traffic
// exactly as a promoted model would.
func (l *Lifecycle) shadowScore(ch *registry.Model, snap *webpage.Snapshot, champion core.Verdict) {
	v, err := ch.Detector.ScoreCtx(l.ctx, core.NewScoreRequest(snap, core.WithoutTargetID()))
	if err != nil {
		return
	}
	l.shadowScored.Add(1)
	if v.DetectorPhish == champion.DetectorPhish {
		l.shadowAgreed.Add(1)
	}
}

func (l *Lifecycle) challengerModel() *registry.Model {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.challenger
}

func (l *Lifecycle) setLastErr(s string) {
	l.mu.Lock()
	l.lastErr = s
	l.mu.Unlock()
}

// RetrainAsync starts a background retrain tracked by the lifecycle
// (Close waits for it; its context cancels with the lifecycle). It
// fails fast with ErrRetrainRunning when one is already in flight; the
// retrain's own outcome surfaces in Status (Retrains / RetrainFailures
// / LastError).
func (l *Lifecycle) RetrainAsync() error {
	if l.retraining.Load() {
		return ErrRetrainRunning
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		// Failures (and the race where a concurrent starter won the CAS
		// inside Retrain) are already accounted by Retrain itself —
		// counters and LastError surface them. A genuine failure backs
		// the automatic loop off for a window of traffic; whatever broke
		// the corpus (single-class store, fetcher outage) needs fresh
		// evidence, not an immediate identical attempt.
		if _, err := l.Retrain(l.ctx); err != nil && !errors.Is(err, ErrRetrainRunning) {
			l.cooldown.Store(int64(l.monitor.Window()))
		}
	}()
	return nil
}

// Retrain builds a fresh corpus from the verdict store (re-crawling
// each stored URL, labeled by its persisted final verdict — the
// pipeline's own FP-removed calls), trains a challenger with the
// champion's configuration, evaluates both on the same held-out split
// and registers the challenger. It does not promote. Single-flight:
// concurrent calls fail with ErrRetrainRunning.
func (l *Lifecycle) Retrain(ctx context.Context) (registry.Manifest, error) {
	if !l.retraining.CompareAndSwap(false, true) {
		return registry.Manifest{}, ErrRetrainRunning
	}
	defer l.retraining.Store(false)

	man, err := l.retrain(ctx)
	if err != nil {
		l.retrainFails.Add(1)
		l.setLastErr(err.Error())
		l.cfg.Logger.Error("retrain failed", "err", err)
		return registry.Manifest{}, err
	}
	l.retrains.Add(1)
	l.setLastErr("")
	l.cfg.Logger.Info("retrain completed; challenger installed",
		"challenger_version", man.Version, "held_out_auc", man.Stats.HeldOutAUC,
		"held_out_accuracy", man.Stats.HeldOutAccuracy, "samples", man.Stats.Samples)
	return man, nil
}

func (l *Lifecycle) retrain(ctx context.Context) (registry.Manifest, error) {
	if l.cfg.Store == nil || l.cfg.Fetcher == nil {
		return registry.Manifest{}, errors.New("drift: retraining needs a verdict store and a fetcher")
	}
	champion := l.cfg.Registry.Current()
	if champion == nil {
		return registry.Manifest{}, registry.ErrNoChampion
	}

	// Page through the newest DefaultRetrainMax verdicts with Scan cursors
	// instead of materializing one whole-index slice: at production
	// scale the corpus is a window over millions of records, and the
	// store streams each page from disk.
	var snaps []*webpage.Snapshot
	var labels []int
	seen := 0
	q := store.Query{Limit: retrainScanPage}
	for seen < DefaultRetrainMax {
		if remaining := DefaultRetrainMax - seen; remaining < q.Limit {
			q.Limit = remaining
		}
		page, err := l.cfg.Store.Scan(ctx, q)
		if err != nil {
			return registry.Manifest{}, fmt.Errorf("drift: reading retrain corpus: %w", err)
		}
		recs, err := page.Decode()
		if err != nil {
			return registry.Manifest{}, fmt.Errorf("drift: reading retrain corpus: %w", err)
		}
		for i, rec := range recs {
			if i%32 == 0 && ctx.Err() != nil {
				return registry.Manifest{}, context.Cause(ctx)
			}
			if rec.Error != "" {
				continue // terminal fetch failures carry no page
			}
			snap, err := crawl.Visit(l.cfg.Fetcher, rec.URL)
			if err != nil {
				continue // gone since it was scored; the rest still teach
			}
			label := 0
			if rec.Outcome.FinalPhish {
				label = 1
			}
			snaps = append(snaps, snap)
			labels = append(labels, label)
		}
		seen += len(recs)
		if page.NextCursor == "" {
			break
		}
		q.Cursor = page.NextCursor
	}
	trainSnaps, trainLabels, holdSnaps, holdLabels := l.split(snaps, labels)
	if err := needBothClasses(trainLabels); err != nil {
		return registry.Manifest{}, fmt.Errorf("drift: retrain corpus (%d usable of %d records): %w", len(snaps), seen, err)
	}
	if err := needBothClasses(holdLabels); err != nil {
		return registry.Manifest{}, fmt.Errorf("drift: held-out split (%d examples): %w", len(holdSnaps), err)
	}

	gbm := l.cfg.GBM
	if gbm.Trees == 0 {
		gbm = champion.Model().Config
	}
	challenger, err := core.Train(trainSnaps, trainLabels, core.TrainConfig{
		GBM:        gbm,
		Threshold:  champion.Threshold(),
		FeatureSet: champion.FeatureSet(),
		Rank:       l.cfg.Rank,
	})
	if err != nil {
		return registry.Manifest{}, fmt.Errorf("drift: training challenger: %w", err)
	}

	eval := l.evaluate(champion, challenger, holdSnaps, holdLabels)
	pos := 0
	for _, y := range trainLabels {
		pos += y
	}
	man, err := l.cfg.Registry.Save(challenger, registry.TrainingStats{
		Samples:         len(trainSnaps),
		Phish:           pos,
		Legitimate:      len(trainSnaps) - pos,
		HeldOutAUC:      eval.ChallengerAUC,
		HeldOutAccuracy: eval.ChallengerAccuracy,
		Source:          "verdict-store",
	}, "retrained from store-persisted verdicts")
	if err != nil {
		return registry.Manifest{}, err
	}
	eval.ChampionVersion = champion.Version()
	eval.ChallengerVersion = man.Version

	l.mu.Lock()
	l.challenger = &registry.Model{Detector: challenger, Manifest: man}
	l.eval = &eval
	l.mu.Unlock()
	// A fresh challenger restarts its live-exposure clock.
	l.shadowScored.Store(0)
	l.shadowAgreed.Store(0)
	return man, nil
}

// split partitions per class round-robin so both splits keep both
// classes whenever the corpus has them, deterministically for a fixed
// seed.
func (l *Lifecycle) split(snaps []*webpage.Snapshot, labels []int) (ts []*webpage.Snapshot, tl []int, hs []*webpage.Snapshot, hl []int) {
	const every = int(1 / DefaultHoldout)
	var seen [2]int
	for i, s := range snaps {
		y := labels[i]
		seen[y]++
		if seen[y]%every == 0 {
			hs = append(hs, s)
			hl = append(hl, y)
		} else {
			ts = append(ts, s)
			tl = append(tl, y)
		}
	}
	return ts, tl, hs, hl
}

// evaluate scores both models on the held-out split over one shared
// feature-extraction pass.
func (l *Lifecycle) evaluate(champion, challenger *core.Detector, snaps []*webpage.Snapshot, labels []int) Evaluation {
	e := features.Extractor{Rank: l.cfg.Rank}
	champScores := make([]float64, len(snaps))
	chalScores := make([]float64, len(snaps))
	for i, s := range snaps {
		vec := e.ExtractSnapshot(s)
		champScores[i] = champion.ScoreVector(vec)
		chalScores[i] = challenger.ScoreVector(vec)
	}
	return Evaluation{
		Holdout:            len(snaps),
		ChampionAUC:        ml.AUC(champScores, labels),
		ChallengerAUC:      ml.AUC(chalScores, labels),
		ChampionAccuracy:   ml.Evaluate(champScores, labels, champion.Threshold()).Accuracy(),
		ChallengerAccuracy: ml.Evaluate(chalScores, labels, challenger.Threshold()).Accuracy(),
	}
}

func needBothClasses(labels []int) error {
	pos := 0
	for _, y := range labels {
		pos += y
	}
	if pos == 0 || pos == len(labels) {
		return fmt.Errorf("needs both classes (positives=%d of %d)", pos, len(labels))
	}
	return nil
}

// Decide runs the promotion gate against the last retrain's held-out
// evaluation: the challenger must be within Epsilon of the champion on
// both AUC and accuracy.
func (l *Lifecycle) Decide() Decision {
	l.mu.Lock()
	eval := l.eval
	ch := l.challenger
	l.mu.Unlock()
	if ch == nil || eval == nil {
		return Decision{Promote: false, Reason: "no challenger to promote"}
	}
	eps := l.cfg.Epsilon
	if eval.ChallengerAUC < eval.ChampionAUC-eps {
		return Decision{
			Promote:    false,
			Reason:     fmt.Sprintf("held-out AUC %.4f below champion %.4f − ε %.4f", eval.ChallengerAUC, eval.ChampionAUC, eps),
			Evaluation: eval,
		}
	}
	if eval.ChallengerAccuracy < eval.ChampionAccuracy-eps {
		return Decision{
			Promote:    false,
			Reason:     fmt.Sprintf("held-out accuracy %.4f below champion %.4f − ε %.4f", eval.ChallengerAccuracy, eval.ChampionAccuracy, eps),
			Evaluation: eval,
		}
	}
	return Decision{
		Promote:    true,
		Reason:     "held-out AUC and accuracy within ε of champion",
		Evaluation: eval,
	}
}

// Promote swaps the champion to version. Unless force is set, the
// promotion gate must pass when version is the current challenger; a
// version with no pending evaluation (an operator rollback to an older
// model, say) requires force. Promotion resets the drift monitor — the
// new champion defines a new baseline distribution — and clears the
// challenger slot when it was the promoted version.
func (l *Lifecycle) Promote(version string, force bool) (registry.Model, error) {
	ch := l.challengerModel()
	if !force {
		if ch == nil || ch.Manifest.Version != version {
			return registry.Model{}, fmt.Errorf("%w: %s has no pending evaluation; promote the current challenger or force", ErrGateRefused, version)
		}
		if d := l.Decide(); !d.Promote {
			return registry.Model{}, fmt.Errorf("%w: %s: %s", ErrGateRefused, version, d.Reason)
		}
	}
	m, err := l.cfg.Registry.SetChampion(version)
	if err != nil {
		return registry.Model{}, err
	}
	l.promotions.Add(1)
	l.cfg.Logger.Info("champion promoted",
		"version", version, "hash", m.Manifest.Hash, "forced", force)
	l.mu.Lock()
	if l.challenger != nil && l.challenger.Manifest.Version == version {
		l.challenger = nil
		l.eval = nil
	}
	l.mu.Unlock()
	l.monitor.Reset()
	return m, nil
}

// Status returns the lifecycle introspection document.
func (l *Lifecycle) Status() LifecycleStatus {
	st := LifecycleStatus{
		Drift:              l.monitor.Status(),
		ChampionVersion:    l.cfg.Registry.ChampionVersion(),
		ShadowFraction:     l.cfg.ShadowFraction,
		ShadowScored:       l.shadowScored.Load(),
		Retrains:           l.retrains.Load(),
		RetrainFailures:    l.retrainFails.Load(),
		Promotions:         l.promotions.Load(),
		ChallengersRetired: l.retired.Load(),
		Retraining:         l.retraining.Load(),
		AutoRetrain:        l.cfg.AutoRetrain,
		Cooldown:           l.cooldown.Load(),
	}
	if st.ShadowScored > 0 {
		st.ShadowAgreement = float64(l.shadowAgreed.Load()) / float64(st.ShadowScored)
	}
	l.mu.Lock()
	if l.challenger != nil {
		st.ChallengerVersion = l.challenger.Manifest.Version
	}
	st.Evaluation = l.eval
	st.LastError = l.lastErr
	l.mu.Unlock()
	return st
}
