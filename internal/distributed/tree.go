package distributed

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// This file simulates the *continuous* distributed monitoring setting
// (§1 combined with §5.5) as a delta-shipping aggregation tree: sites
// ingest their local update streams in real time and synchronize with
// the coordinator through a fan-in-k tree whose edges carry delta
// frames instead of full site state every round. A delta entry carries
// one shard's change since the edge's last acknowledged epoch, Φ(Δx):
// a site writes each round's updates into one pending replica per shard
// besides its live shards, and ships the changed shards' pending
// replicas. Every hop adds each change in place exactly once
// (linearity: the sketch of a sum is the sum of the sketches). An
// interior node adds it to its running sum for that child and shard,
// and forwards the round's changes to each shard summed into one; the
// root adds them to one live coordinator. Nothing ever subtracts, so
// counterbraids, whose merge carries between layers, ships too. A site
// restarting mid-run (the churn simulator) rejoins with one full-state
// frame, which cascades to the root: every node on the path replaces
// its sums for the lost site wholesale, and the root rebuilds the
// coordinator from its children's sums.
//
// The protocol invariant the codec and the tree enforce together:
// delta frames are insert-only per epoch. On any edge, a delta entry's
// epoch must strictly exceed the last epoch acknowledged for that
// shard, which is what keeps a change from being added twice; only
// full frames — a rejoin after churn — may reset an edge's epoch
// tracking.

// ShipMode selects what a synchronization ships on every tree edge.
type ShipMode int

const (
	// ShipDelta ships, for each shard whose epoch advanced since the
	// last acknowledged hop, only its change since then — the fabric
	// this file exists for.
	ShipDelta ShipMode = iota
	// ShipFull ships every site's complete replica state every round —
	// the baseline the delta saving is measured against.
	ShipFull
)

// Restart is one churn event: before round Round ingests, site Site
// crashes and restarts from its last checkpoint, replaying its stream
// from the checkpointed position and rejoining with a full-state frame.
type Restart struct {
	Round int // 1-based monitoring round the restart precedes
	Site  int
}

// TreeConfig shapes a tree-fabric monitoring run.
type TreeConfig struct {
	Sites     int      // number of leaf sites
	SyncEvery int      // updates per site between synchronizations
	FanIn     int      // children per interior node (k ≥ 2)
	Shards    int      // per-site replica shards; updates route by key mod Shards
	Mode      ShipMode // delta shipping or the full-state baseline

	// CheckpointEvery takes a durable site checkpoint every that many
	// rounds (0 disables; a site restarting without one boots empty and
	// replays its whole stream).
	CheckpointEvery int
	Restarts        []Restart
}

// Validate checks the configuration.
func (c TreeConfig) Validate() error {
	if c.Sites <= 0 {
		return fmt.Errorf("%w: Sites must be positive, got %d", ErrBadConfig, c.Sites)
	}
	if c.SyncEvery <= 0 {
		return fmt.Errorf("%w: SyncEvery must be positive, got %d", ErrBadConfig, c.SyncEvery)
	}
	if c.FanIn < 2 {
		return fmt.Errorf("%w: FanIn must be at least 2, got %d", ErrBadConfig, c.FanIn)
	}
	if c.Shards < 1 || c.Shards > codec.MaxShards {
		return fmt.Errorf("%w: Shards must be in [1, %d], got %d", ErrBadConfig, codec.MaxShards, c.Shards)
	}
	if c.Mode != ShipDelta && c.Mode != ShipFull {
		return fmt.Errorf("%w: unknown ship mode %d", ErrBadConfig, int(c.Mode))
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("%w: CheckpointEvery must be non-negative, got %d", ErrBadConfig, c.CheckpointEvery)
	}
	for i, r := range c.Restarts {
		if r.Site < 0 || r.Site >= c.Sites {
			return fmt.Errorf("%w: restart %d names site %d of %d", ErrBadConfig, i, r.Site, c.Sites)
		}
		if r.Round < 1 {
			return fmt.Errorf("%w: restart %d scheduled for round %d", ErrBadConfig, i, r.Round)
		}
	}
	return nil
}

// MonitorStats accumulates the cost of a monitoring run.
type MonitorStats struct {
	Rounds         int
	UpdatesApplied int
	CommWords      int // total words shipped toward the coordinator
	CommBytes      int // total encoded bytes shipped toward the coordinator

	// SketchWords is the single-sketch size for the run's descriptor,
	// and BudgetWordsPerRound the paper's theoretical per-round budget:
	// sites × sketch size (§5.5) — what a full-state synchronization
	// ships. Delta rounds are measured against it.
	SketchWords         int
	BudgetWordsPerRound int

	Restarts int          // churn events applied
	PerRound []RoundStats // per-synchronization communication ledger
}

// RoundStats is the communication ledger of one synchronization round.
type RoundStats struct {
	Round        int
	CommBytes    int // encoded frame bytes across every tree edge this round
	CommWords    int // sketch words inside those frames
	DeltaEntries int // shard sections shipped in delta frames
	FullFrames   int // full-state frames shipped (rejoins and ShipFull mode)
	ActiveSites  int // sites that ingested at least one update this round
}

// node is one interior vertex of the aggregation tree. For every child
// and shard it keeps the running sum of what that child shipped: a full
// entry replaces the sum, a delta entry is added to it. Those sums are
// what a full frame upward carries and what the root rebuilds the
// coordinator from after one. Beside them it keeps, per shard, this
// round's changes summed into the first one it decoded, which a delta
// frame upward forwards. It also keeps the epoch it acknowledged on
// each edge; the epoch it advertises upward is the sum of the child
// epochs — monotone as long as every child edge is.
type node struct {
	childAgg [][]sketch.Sketch // childAgg[c][s]: child c's shard s as shipped so far (nil: nothing yet)
	seen     [][]uint64        // seen[c][s]: last epoch acknowledged on edge c for shard s
	pending  []sketch.Sketch   // pending[s]: this round's change to shard s (nil: none)
	full     bool              // a child rejoined: cascade a full frame upward
}

func newNode(children, shards int) *node {
	n := &node{
		childAgg: make([][]sketch.Sketch, children),
		seen:     make([][]uint64, children),
		pending:  make([]sketch.Sketch, shards),
	}
	for c := range n.childAgg {
		n.childAgg[c] = make([]sketch.Sketch, shards)
		n.seen[c] = make([]uint64, shards)
	}
	return n
}

// absorb applies one child frame, enforcing the wire contract: the
// frame must match the fabric's descriptor and shard count
// (ErrFrameMismatch otherwise), and every delta entry must strictly
// advance the edge's acknowledged epoch (ErrStaleFrame otherwise), or
// nothing of the frame is applied. A full frame resets the edge — every
// sum and epoch for the child is replaced — and marks the node to
// cascade a full frame upward. A delta entry is added to the child's
// sum and to the round's change, and the node keeps the decoded
// replica as that change when it is the shard's first this round.
func (n *node) absorb(c int, f *codec.DeltaFrame, desc codec.Desc, shards int) error {
	if f.Desc != desc {
		return fmt.Errorf("%w: frame descriptor %+v, fabric %+v", ErrFrameMismatch, f.Desc, desc)
	}
	if f.Shards != shards {
		return fmt.Errorf("%w: frame has %d shards, fabric %d", ErrFrameMismatch, f.Shards, shards)
	}
	if f.Full {
		for s := range n.seen[c] {
			n.seen[c][s] = 0
			n.childAgg[c][s] = nil
		}
		for _, en := range f.Entries {
			n.seen[c][en.Shard] = en.Epoch
			n.childAgg[c][en.Shard] = en.Sk
		}
		n.full = true
		return nil
	}
	for _, en := range f.Entries {
		if en.Epoch <= n.seen[c][en.Shard] {
			return fmt.Errorf("%w: child %d shard %d epoch %d, acknowledged %d",
				ErrStaleFrame, c, en.Shard, en.Epoch, n.seen[c][en.Shard])
		}
	}
	for _, en := range f.Entries {
		sh := en.Shard
		n.seen[c][sh] = en.Epoch
		if n.childAgg[c][sh] == nil {
			sum, err := registry.SafeNew(desc.Algo, desc.Shape())
			if err != nil {
				return err
			}
			n.childAgg[c][sh] = sum
		}
		if err := registry.Merge(n.childAgg[c][sh], en.Sk); err != nil {
			return err
		}
		if n.pending[sh] == nil {
			n.pending[sh] = en.Sk
		} else if err := registry.Merge(n.pending[sh], en.Sk); err != nil {
			return err
		}
	}
	return nil
}

// aggregate sums shard sh across the node's children in child order
// into a fresh replica.
func (n *node) aggregate(sh int, desc codec.Desc, e *registry.Entry) (sketch.Sketch, error) {
	sum := e.MustNew(desc.Shape())
	for c := range n.childAgg {
		if n.childAgg[c][sh] == nil {
			continue
		}
		if err := registry.Merge(sum, n.childAgg[c][sh]); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// epoch is the node's upward epoch for shard sh: the sum of what its
// edges acknowledged.
func (n *node) epoch(sh int) uint64 {
	var epoch uint64
	for c := range n.seen {
		epoch += n.seen[c][sh]
	}
	return epoch
}

// emit builds the node's upward frame: a full frame of every shard's
// sum when a child rejoined this round (the reset must cascade) or the
// fabric runs in full-state mode, a delta frame of the round's changes,
// or nil when nothing changed. Emitting clears the round's changes and
// the cascade flag.
func (n *node) emit(desc codec.Desc, e *registry.Entry, shards int, mode ShipMode) (*codec.DeltaFrame, error) {
	full := n.full || mode == ShipFull
	frame := &codec.DeltaFrame{Desc: desc, Full: full, Shards: shards}
	for sh := 0; sh < shards; sh++ {
		sk := n.pending[sh]
		if full {
			var err error
			if sk, err = n.aggregate(sh, desc, e); err != nil {
				return nil, fmt.Errorf("distributed: aggregating shard %d: %w", sh, err)
			}
		}
		if sk != nil {
			frame.Entries = append(frame.Entries, codec.DeltaEntry{Shard: sh, Epoch: n.epoch(sh), Sk: sk})
		}
	}
	clear(n.pending)
	n.full = false
	if len(frame.Entries) == 0 {
		return nil, nil
	}
	return frame, nil
}

// advance brings the live coordinator up to date with the root's round: a
// delta frame's changes are added to it in place, and after a full
// frame it is rebuilt as the shard-order sum of the root's per-shard
// sums.
func advance(coordinator sketch.Sketch, root *node, desc codec.Desc, e *registry.Entry, shards int, mode ShipMode) (sketch.Sketch, error) {
	frame, err := root.emit(desc, e, shards, mode)
	if err != nil || frame == nil {
		return coordinator, err
	}
	if frame.Full {
		coordinator = e.MustNew(desc.Shape())
	}
	for _, en := range frame.Entries {
		if err := registry.Merge(coordinator, en.Sk); err != nil {
			return nil, err
		}
	}
	return coordinator, nil
}

// buildLevels shapes the tree: level 0 groups the sites under
// ceil(sites/fanIn) interior nodes, each further level groups the one
// below, and the last level is the single root.
func buildLevels(sites, fanIn, shards int) [][]*node {
	var levels [][]*node
	width := sites
	for {
		groups := (width + fanIn - 1) / fanIn
		level := make([]*node, groups)
		for g := range level {
			lo := g * fanIn
			hi := lo + fanIn
			if hi > width {
				hi = width
			}
			level[g] = newNode(hi-lo, shards)
		}
		levels = append(levels, level)
		if groups == 1 {
			return levels
		}
		width = groups
	}
}

// MonitorTree runs the continuous-monitoring simulation over the
// aggregation-tree fabric. streams[p] is site p's update sequence,
// consumed in SyncEvery-sized batches per round; after ingestion every
// tree edge ships its frame (encoded wire bytes, exactly as over a
// network), interior nodes add the children's changes to their sums,
// and the root adds the round's changes to the live coordinator, the
// up-to-date global sketch. Churn events in cfg.Restarts
// crash-and-restore sites between rounds. onSync, if non-nil, observes
// the coordinator after every round: it is the live coordinator, valid
// until the callback returns, and the next round writes into it.
//
// Every change is added exactly once, so the coordinator holds the sum
// of every update applied so far. When those sums are exact in float64
// (integer deltas), its answers are bit-identical to a full-state run
// and to a single-stream ingest of the interleaved updates, since the
// order of the additions cannot move a bit.
func MonitorTree(
	cfg TreeConfig,
	desc codec.Desc,
	streams [][]stream.Update,
	onSync func(round int, coordinator sketch.Sketch),
) (sketch.Sketch, MonitorStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, MonitorStats{}, err
	}
	if len(streams) != cfg.Sites {
		return nil, MonitorStats{}, fmt.Errorf("%w: %d streams for %d sites", ErrNoSites, len(streams), cfg.Sites)
	}
	e, ok := registry.Lookup(desc.Algo)
	if !ok {
		return nil, MonitorStats{}, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, desc.Algo)
	}
	if err := shippable(e); err != nil {
		return nil, MonitorStats{}, err
	}

	leaves := make([]*site, cfg.Sites)
	for p := range leaves {
		st, err := newSite(p, desc, e, cfg.Shards, streams[p], cfg.Mode)
		if err != nil {
			return nil, MonitorStats{}, err
		}
		leaves[p] = st
	}
	levels := buildLevels(cfg.Sites, cfg.FanIn, cfg.Shards)
	root := levels[len(levels)-1][0]

	restartsAt := make(map[int][]int)
	lastRestart := 0
	for _, r := range cfg.Restarts {
		restartsAt[r.Round] = append(restartsAt[r.Round], r.Site)
		if r.Round > lastRestart {
			lastRestart = r.Round
		}
	}

	probe := e.MustNew(desc.Shape())
	st := MonitorStats{
		SketchWords:         probe.Words(),
		BudgetWordsPerRound: cfg.Sites * probe.Words(),
	}
	coordinator := e.MustNew(desc.Shape())
	for round := 1; ; round++ {
		restarted := false
		for _, p := range restartsAt[round] {
			if err := leaves[p].restart(desc, e); err != nil {
				return nil, st, err
			}
			st.Restarts++
			restarted = true
		}
		rs := RoundStats{Round: round}
		applied := 0
		for _, l := range leaves {
			a := l.ingest(cfg.SyncEvery, desc, e)
			applied += a
			if a > 0 {
				rs.ActiveSites++
			}
		}
		st.UpdatesApplied += applied
		// The run ends when no site ingested, none rejoined this round,
		// and no churn event remains scheduled: nothing can change the
		// coordinator anymore. Idle rounds before a still-scheduled
		// restart keep synchronizing — the fabric stays live (and in
		// delta mode ships nothing).
		if applied == 0 && !restarted && round > lastRestart {
			break
		}
		if cfg.CheckpointEvery > 0 && round%cfg.CheckpointEvery == 0 {
			for _, l := range leaves {
				if err := l.checkpoint(desc); err != nil {
					return nil, st, err
				}
			}
		}
		// Ship bottom-up: site→level-0 edges first, then each interior
		// level into the one above. Every edge goes through the codec —
		// the frame a parent absorbs was rebuilt purely from wire bytes.
		for p, l := range leaves {
			frame, err := l.emit(desc, e, cfg.Mode)
			if err != nil {
				return nil, st, err
			}
			if err := ship(frame, levels[0][p/cfg.FanIn], p%cfg.FanIn, desc, cfg.Shards, &rs); err != nil {
				return nil, st, fmt.Errorf("distributed: round %d site %d: %w", round, p, err)
			}
		}
		for li := 1; li < len(levels); li++ {
			for ci, child := range levels[li-1] {
				frame, err := child.emit(desc, e, cfg.Shards, cfg.Mode)
				if err != nil {
					return nil, st, err
				}
				if err := ship(frame, levels[li][ci/cfg.FanIn], ci%cfg.FanIn, desc, cfg.Shards, &rs); err != nil {
					return nil, st, fmt.Errorf("distributed: round %d level %d node %d: %w", round, li-1, ci, err)
				}
			}
		}
		st.Rounds++
		st.CommBytes += rs.CommBytes
		st.CommWords += rs.CommWords
		st.PerRound = append(st.PerRound, rs)
		var err error
		if coordinator, err = advance(coordinator, root, desc, e, cfg.Shards, cfg.Mode); err != nil {
			return nil, st, fmt.Errorf("distributed: round %d: %w", round, err)
		}
		if onSync != nil {
			onSync(round, coordinator)
		}
	}
	return coordinator, st, nil
}

// ship moves one frame across one tree edge: encode to wire bytes,
// account the cost, decode on the receiving side, absorb. A nil frame
// is a quiet edge — nothing crosses, nothing is counted.
func ship(frame *codec.DeltaFrame, parent *node, edge int, desc codec.Desc, shards int, rs *RoundStats) error {
	if frame == nil {
		return nil
	}
	var pkt bytes.Buffer
	if err := codec.EncodeDelta(&pkt, *frame); err != nil {
		return fmt.Errorf("encode: %w", err)
	}
	rs.CommBytes += pkt.Len()
	got, err := codec.DecodeDelta(&pkt)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	for _, en := range got.Entries {
		rs.CommWords += en.Sk.Words()
	}
	if got.Full {
		rs.FullFrames++
	} else {
		rs.DeltaEntries += len(got.Entries)
	}
	return parent.absorb(edge, &got, desc, shards)
}
