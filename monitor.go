package repro

import (
	"errors"
	"fmt"

	"repro/internal/codec"
	"repro/internal/distributed"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file is the facade over the continuous distributed-monitoring
// fabric (internal/distributed): t sites ingest local update streams
// and ship up a fan-in-k aggregation tree delta frames carrying each
// changed replica shard's change since the last acknowledged hop;
// every hop adds each change in place exactly once, and the root
// serves the global sketch, bit-identical to a single sketch that saw
// every update. Sites can crash and rejoin from checkpoints mid-run; a
// rejoin resynchronizes its path to the root with one full-state
// frame.

// Monitoring defaults applied by Monitor when the corresponding
// MonitorConfig field is zero.
const (
	DefaultMonitorSyncEvery = 1024
	DefaultMonitorFanIn     = 4
	DefaultMonitorShards    = 4
)

// SiteUpdate is one element of a monitored site's local stream:
// x[I] += Delta.
type SiteUpdate struct {
	I     int
	Delta float64
}

// MonitorRestart is one churn event: before round Round ingests, site
// Site crashes and restarts from its last checkpoint, replaying its
// stream from the checkpointed position and rejoining the tree with a
// full-state frame.
type MonitorRestart struct {
	Round int // 1-based monitoring round the restart precedes
	Site  int
}

// MonitorConfig shapes a Monitor run. Zero values take the
// DefaultMonitor* constants (and Sites defaults to the number of
// streams), so the zero config is runnable.
type MonitorConfig struct {
	// Sites is the number of leaf sites; 0 means len(streams).
	Sites int
	// SyncEvery is the updates each site ingests between
	// synchronization rounds. Default DefaultMonitorSyncEvery.
	SyncEvery int
	// FanIn is the aggregation-tree branching factor (≥ 2). Default
	// DefaultMonitorFanIn.
	FanIn int
	// Shards is the per-site replica shard count; updates route to
	// shard key mod Shards, and delta frames carry only the shards
	// that changed. Default DefaultMonitorShards.
	Shards int
	// FullState ships every site's complete state every round instead
	// of deltas — the communication baseline the paper's sites ×
	// sketch-size budget describes.
	FullState bool
	// CheckpointEvery takes a durable site checkpoint every that many
	// rounds; 0 disables, so a restarted site replays its whole stream.
	CheckpointEvery int
	// Restarts is the churn schedule.
	Restarts []MonitorRestart
}

// MonitorRound is the communication ledger of one synchronization
// round.
type MonitorRound struct {
	Round        int
	CommBytes    int // encoded frame bytes across every tree edge
	CommWords    int // sketch words inside those frames
	DeltaEntries int // shard sections shipped in delta frames
	FullFrames   int // full-state frames (rejoins and FullState mode)
	ActiveSites  int // sites that ingested at least one update
}

// MonitorReport summarizes a Monitor run.
type MonitorReport struct {
	Rounds         int
	UpdatesApplied int
	CommWords      int
	CommBytes      int

	// SketchWords is the single-sketch size for the configuration, and
	// BudgetWordsPerRound the paper's theoretical per-round budget:
	// sites × sketch size (§5.5) — what full-state shipping costs.
	SketchWords         int
	BudgetWordsPerRound int

	Restarts int
	PerRound []MonitorRound
}

// Monitor runs the continuous-monitoring simulation: streams[p] is
// site p's local update sequence, algo and opts name the shared sketch
// configuration every site constructs (same linearity and
// serializability contract as Merge and Marshal — and dense-only, like
// NewSharded, since site replicas live behind the wire format).
// onSync, if non-nil, observes the coordinator's global sketch after
// every synchronization round. That sketch is the live coordinator,
// valid until the callback returns: the next round adds its changes
// into it, so a callback keeps answers, not the sketch.
//
// Each delta frame carries a shard's change since the edge's last
// acknowledged epoch, and every hop adds it exactly once; the epoch
// rule, which refuses an entry that does not advance its edge's epoch,
// is what stops a change from being added twice.
//
// The returned sketch is the coordinator's final state; its answers
// are bit-identical to a single sketch of the same configuration fed
// every update, whatever the fan-in, shard count, shipping mode, or
// churn schedule.
func Monitor(
	algo string,
	cfg MonitorConfig,
	streams [][]SiteUpdate,
	onSync func(round int, coordinator Sketch),
	opts ...Option,
) (Sketch, MonitorReport, error) {
	e, ok := registry.Lookup(algo)
	if !ok {
		return nil, MonitorReport{}, fmt.Errorf("%w: %q (valid: %v)", ErrUnknownAlgorithm, algo, Algorithms())
	}
	nc, err := buildConfig(opts)
	if err != nil {
		return nil, MonitorReport{}, err
	}
	desc := codec.Desc{Algo: e.Name, N: nc.dim, S: nc.words, D: nc.depth, Seed: nc.seed}

	tc := distributed.TreeConfig{
		Sites:           cfg.Sites,
		SyncEvery:       cfg.SyncEvery,
		FanIn:           cfg.FanIn,
		Shards:          cfg.Shards,
		CheckpointEvery: cfg.CheckpointEvery,
	}
	if tc.Sites == 0 {
		tc.Sites = len(streams)
	}
	if tc.SyncEvery == 0 {
		tc.SyncEvery = DefaultMonitorSyncEvery
	}
	if tc.FanIn == 0 {
		tc.FanIn = DefaultMonitorFanIn
	}
	if tc.Shards == 0 {
		tc.Shards = DefaultMonitorShards
	}
	if cfg.FullState {
		tc.Mode = distributed.ShipFull
	}
	for _, r := range cfg.Restarts {
		tc.Restarts = append(tc.Restarts, distributed.Restart{Round: r.Round, Site: r.Site})
	}

	ss := make([][]stream.Update, len(streams))
	for p, us := range streams {
		converted := make([]stream.Update, len(us))
		for i, u := range us {
			converted[i] = stream.Update{I: u.I, Delta: u.Delta}
		}
		ss[p] = converted
	}

	coord, st, err := distributed.MonitorTree(tc, desc, ss, func(round int, c sketch.Sketch) {
		if onSync != nil {
			onSync(round, wrap(e, c, desc))
		}
	})
	if err != nil {
		return nil, MonitorReport{}, monitorError(err)
	}

	report := MonitorReport{
		Rounds:              st.Rounds,
		UpdatesApplied:      st.UpdatesApplied,
		CommWords:           st.CommWords,
		CommBytes:           st.CommBytes,
		SketchWords:         st.SketchWords,
		BudgetWordsPerRound: st.BudgetWordsPerRound,
		Restarts:            st.Restarts,
		PerRound:            make([]MonitorRound, len(st.PerRound)),
	}
	for i, r := range st.PerRound {
		report.PerRound[i] = MonitorRound{
			Round: r.Round, CommBytes: r.CommBytes, CommWords: r.CommWords,
			DeltaEntries: r.DeltaEntries, FullFrames: r.FullFrames, ActiveSites: r.ActiveSites,
		}
	}
	return wrap(e, coord, desc), report, nil
}

// monitorError maps the internal fabric's sentinels onto the facade's,
// so callers errors.Is against repro's exported errors only.
func monitorError(err error) error {
	switch {
	case errors.Is(err, distributed.ErrBadConfig),
		errors.Is(err, distributed.ErrNoSites):
		return fmt.Errorf("%w: %w", ErrInvalidOption, err)
	case errors.Is(err, distributed.ErrNotShippable):
		return fmt.Errorf("%w: %w", ErrNotLinear, err)
	case errors.Is(err, distributed.ErrUnknownAlgorithm):
		return fmt.Errorf("%w: %w", ErrUnknownAlgorithm, err)
	default:
		return fmt.Errorf("repro: monitoring: %w", err)
	}
}
