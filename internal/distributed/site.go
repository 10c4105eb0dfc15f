package distributed

import (
	"bytes"
	"fmt"

	"repro/internal/codec"
	"repro/internal/concurrent"
	"repro/internal/registry"
	"repro/internal/sketch"
	"repro/internal/stream"
)

// A site is one leaf of the aggregation tree: a concurrent.Sharded
// replica set absorbing the site's local update stream, plus the
// bookkeeping that makes delta shipping possible — one pending replica
// per shard holding the shard's change since the parent's last
// acknowledged epoch, the wire-v2 checkpoint the churn simulator
// restarts it from, and the rejoin flag that forces a full-state frame
// after a restart.
//
// Updates route to shard (key mod shards), so a skewed key
// distribution concentrates writes on few shards and a sync ships few
// sections — the communication saving the delta protocol exists for.
type site struct {
	id     int
	shards int
	rep    *concurrent.Sharded[sketch.Sketch]
	stream []stream.Update
	pos    int

	// pending[i] is Φ(Δx) of shard i, a replica fed exactly the updates
	// shard i absorbed since its last shipped frame (nil: none). Only a
	// delta-mode site keeps them; a delta frame ships them and drops
	// them, and a full frame drops them unshipped.
	pending []sketch.Sketch
	// rejoin forces the next frame to carry full state: the site
	// restarted from checkpoint, so the parent's view of it is stale
	// from the future and must be reset wholesale.
	rejoin bool

	// Last durable checkpoint: a wire-v2 sharded container plus the
	// stream position it covers. nil state means no checkpoint was
	// ever taken — a restart then rewinds to an empty replica set at
	// position zero and replays the whole stream.
	ckptState []byte
	ckptPos   int

	epochScratch []uint64
	idx          [][]int     // per-shard batch of this round's keys
	deltas       [][]float64 // and their deltas
}

// newSite builds site id over its stream with a fresh replica set; a
// site of a delta-shipping fabric also keeps pending replicas.
func newSite(id int, desc codec.Desc, e *registry.Entry, shards int, updates []stream.Update, mode ShipMode) (*site, error) {
	rep, err := newReplicaSet(desc, e, shards)
	if err != nil {
		return nil, err
	}
	s := &site{
		id:           id,
		shards:       shards,
		rep:          rep,
		stream:       updates,
		epochScratch: make([]uint64, 0, shards),
		idx:          make([][]int, shards),
		deltas:       make([][]float64, shards),
	}
	if mode == ShipDelta {
		s.pending = make([]sketch.Sketch, shards)
	}
	return s, nil
}

// newReplicaSet builds a Sharded replica set of the fabric's shape,
// converting a constructor panic into an error once up front.
func newReplicaSet(desc codec.Desc, e *registry.Entry, shards int) (*concurrent.Sharded[sketch.Sketch], error) {
	if _, err := registry.SafeNew(desc.Algo, desc.Shape()); err != nil {
		return nil, fmt.Errorf("distributed: %w", err)
	}
	mk := func() sketch.Sketch { return e.MustNew(desc.Shape()) }
	return concurrent.New(shards, mk, registry.Merge), nil
}

// ingest applies up to budget stream updates and reports how many ran.
// Updates route to the shard owning the key, and each shard takes its
// share of the round as one batch, which leaves exactly the state of
// the element-wise loop; a delta-mode site writes the same batch into
// the shard's pending replica.
func (s *site) ingest(budget int, desc codec.Desc, e *registry.Entry) int {
	end := min(s.pos+budget, len(s.stream))
	for sh := range s.idx {
		s.idx[sh], s.deltas[sh] = s.idx[sh][:0], s.deltas[sh][:0]
	}
	for _, u := range s.stream[s.pos:end] {
		sh := uint(u.I) % uint(s.shards)
		s.idx[sh] = append(s.idx[sh], u.I)
		s.deltas[sh] = append(s.deltas[sh], u.Delta)
	}
	applied := end - s.pos
	s.pos = end
	for sh, idx := range s.idx {
		if len(idx) == 0 {
			continue
		}
		s.rep.UpdateBatch(sh, idx, s.deltas[sh])
		if s.pending == nil {
			continue
		}
		if s.pending[sh] == nil {
			s.pending[sh] = e.MustNew(desc.Shape())
		}
		sketch.UpdateBatch(s.pending[sh], idx, s.deltas[sh])
	}
	return applied
}

// checkpoint captures the site's durable state: the replica set as a
// wire-v2 sharded container plus the stream position it covers. A
// restart restores exactly this pair and replays the stream from the
// saved position, so no update is ever lost or double-applied.
func (s *site) checkpoint(desc codec.Desc) error {
	var buf bytes.Buffer
	if err := codec.EncodeSharded(&buf, desc, s.rep); err != nil {
		return fmt.Errorf("distributed: site %d checkpoint: %w", s.id, err)
	}
	s.ckptState = buf.Bytes()
	s.ckptPos = s.pos
	return nil
}

// restart simulates a crash + reboot: all in-memory state is dropped
// and the site restores from its last checkpoint (or boots empty if
// none was ever taken), rewinding the stream to the checkpointed
// position. The next frame it ships is a full-state resynchronization.
func (s *site) restart(desc codec.Desc, e *registry.Entry) error {
	if s.ckptState == nil {
		rep, err := newReplicaSet(desc, e, s.shards)
		if err != nil {
			return err
		}
		s.rep = rep
		s.pos = 0
	} else {
		rep, rdesc, err := codec.DecodeSharded(bytes.NewReader(s.ckptState))
		if err != nil {
			return fmt.Errorf("distributed: site %d restore: %w", s.id, err)
		}
		if rdesc != desc || rep.Shards() != s.shards {
			return fmt.Errorf("%w: site %d checkpoint shape changed", ErrFrameMismatch, s.id)
		}
		s.rep = rep
		s.pos = s.ckptPos
	}
	clear(s.pending)
	s.rejoin = true
	return nil
}

// emit builds the site's frame for this round: nil when nothing
// changed and no resynchronization is due, a delta frame carrying each
// changed shard's pending replica at the shard's live epoch, or a
// full-state frame of private copies of every shard when the site just
// rejoined (or the fabric runs in full-state mode). Either way the
// pending replicas are dropped: the simulation's hop is synchronous, so
// shipping is acking, and the next change starts from zero.
func (s *site) emit(desc codec.Desc, e *registry.Entry, mode ShipMode) (*codec.DeltaFrame, error) {
	full := s.rejoin || mode == ShipFull
	frame := &codec.DeltaFrame{Desc: desc, Full: full, Shards: s.shards}
	if full {
		for i := 0; i < s.shards; i++ {
			// Capture a private copy under the shard lock: the frame must
			// stay stable while it is encoded, merged, and forwarded.
			copyErr := s.rep.CheckpointShard(i, func(epoch uint64, sk sketch.Sketch) error {
				cp := e.MustNew(desc.Shape())
				if err := registry.Merge(cp, sk); err != nil {
					return err
				}
				frame.Entries = append(frame.Entries, codec.DeltaEntry{Shard: i, Epoch: epoch, Sk: cp})
				return nil
			})
			if copyErr != nil {
				return nil, fmt.Errorf("distributed: site %d shard %d capture: %w", s.id, i, copyErr)
			}
		}
	} else {
		s.epochScratch = s.rep.Epochs(s.epochScratch[:0])
		for i, d := range s.pending {
			if d != nil {
				frame.Entries = append(frame.Entries, codec.DeltaEntry{Shard: i, Epoch: s.epochScratch[i], Sk: d})
			}
		}
	}
	clear(s.pending)
	s.rejoin = false
	if len(frame.Entries) == 0 {
		return nil, nil
	}
	return frame, nil
}
