// Package repro is a from-scratch Go reproduction of "Bias-Aware
// Sketches" (Jiecao Chen and Qin Zhang, PVLDB 10(9), VLDB 2017) — and
// a production-shaped library around it.
//
// The paper's contribution — the ℓ1-S/R and ℓ2-S/R bias-aware linear
// sketches with the guarantee
//
//	‖x̂ − x‖∞ = O(k^{-1/p}) · min_β Err_p^k(x − β),  p ∈ {1, 2},
//
// — lives in internal/core. Every baseline the paper evaluates against
// (Count-Min, Count-Median, Count-Sketch, CM-CU, CML-CU) and every
// related system it discusses (Deng–Rafiei, BOMP, Counter Braids) is
// implemented alongside, with the streaming and distributed execution
// substrates, synthetic equivalents of the seven evaluation datasets,
// and a benchmark harness (cmd/biasrepro) that regenerates every
// figure of the paper's §5.
//
// # Public API
//
// This package is the facade over all of it. One registry constructs
// every algorithm by canonical name through a single functional-
// options constructor:
//
//	sk, err := repro.New("l2sr",
//	    repro.WithDim(1_000_000),  // n, required
//	    repro.WithWords(16_384),   // s, per-row word budget
//	    repro.WithDepth(9),        // d, independent repetitions
//	    repro.WithSeed(42),        // shared-randomness seed
//	)
//
// Algorithms: l1sr, l2sr, l1mean, l2mean, countmin, countmedian,
// countsketch, cmcu, cmlcu, dengrafiei, exact (the ground-truth dense
// vector); the paper's legend names ("l2-S/R", "CM-CU", …) are
// accepted aliases. All follow the paper's equal-words protocol, so at
// one (words, depth) setting every algorithm costs the same memory.
//
// Capabilities are layered as interfaces — Sketch (update/query),
// BatchUpdater (adds batched ingestion), Linear (adds Merge),
// Serializable (adds the wire format), Biased (adds the β̂ estimate) —
// and as package-level helpers returning typed errors where a
// capability is absent: Merge (ErrNotLinear on the conservative-update
// sketches), Marshal/Unmarshal (the self-describing wire format of
// §5.5's shared-randomness protocol), Recover, Bias, Scan and TopK
// (deviation heavy hitters), NewSharded (contention-free concurrent
// ingestion), and NewRange (dyadic range sums and quantiles).
//
// # Batched ingestion
//
// High-throughput pipelines feed updates in batches rather than one
// stream element at a time. UpdateBatch(sk, idx, deltas) applies
// x[idx[j]] += deltas[j] for every j through the sketch's native
// batched path: a row-major traversal evaluates each row's hash over
// the whole batch (one Carter–Wegman coefficient load per row, see
// internal/hashing's HashMany) and keeps each counter row cache-hot
// while it absorbs every element. The result is bit-identical to the
// element-wise Update loop — batching is a throughput knob, never a
// semantic change — and batches of a few hundred to a few thousand
// elements give 1.2–2× single-threaded speedups depending on the
// algorithm (see README.md for measured numbers). Sharded exposes the
// same entry point with one shard-lock acquisition per batch.
//
// # Batched queries and snapshot serving
//
// The read side mirrors the write side. QueryBatch(sk, idx, out)
// answers a batch of point queries through the same row-major
// traversal — each row's hash and sign coefficients load once per
// batch, the row's buckets are gathered cache-hot, and the per-element
// min/median/bias-correction step runs over the gathered values —
// with results bit-identical to the element-wise Query loop. The
// min-answer sketches gain ~1.5–1.7×, the median-answer ones ~1.1–1.4×
// (the depth-d median is inherently per-element); see README.md for
// measured numbers. Recover uses this path internally. TopK and Scan
// skip keys by a median bound: an estimate is β̂ plus a median over d
// de-biased rows, so a key whose ⌊d/2⌋+1 rows are small in magnitude
// cannot deviate much from β̂. Only the few keys the bound cannot rule
// out get a batched query, and the answer is bit-identical to the full
// scan.
// Batched query scratch is borrowed from a sync.Pool per call — zero
// steady-state allocations, no state shared between calls — so
// concurrent QueryBatch calls against a sketch that is no longer
// being written are safe.
//
// Sharded serves reads from snapshots: every shard carries an epoch
// bumped per write. Once some epoch has moved, Refresh merges every
// shard into one fresh replica (the same pass Merged runs; building it
// allocates counters only) and atomically publishes it as an immutable
// snapshot; Snapshot returns the published replica with zero shard
// locks. Readers never block writers and never see a torn merge, at
// the cost of reading a view that is only as fresh as the last
// Refresh, and memory is P+1 single-sketch replicas. The snapshot exposes the full read surface
// (Query, QueryBatch, Bias, TopK, Scan, Stale) plus Owned, which
// clones it into a mutable facade sketch. An l2sr replica orders its
// bias buckets (the Bias-Heap) at its first read, in O(s), and keeps
// the order per update after that; merges and restores only add or
// copy bucket masses. So a refresh orders once, at the snapshot's
// first query, and shards that are only written never order.
//
// # Wire format and checkpoint/restore
//
// Serialization is a streaming codec (wire format v2): versioned,
// length-prefixed, section-based containers over io.Writer/io.Reader.
// Encode/Decode (and the buffer forms Marshal/Unmarshal) carry single
// sketches; Sharded.Checkpoint/RestoreSharded,
// Windowed.Checkpoint/RestoreWindowed, and
// RangeSketch.Checkpoint/RestoreRange carry the composite serving
// structures — shard states with their epochs, pane rings with their
// rotation sequences and clock-independent pane width, dyadic level
// stacks (exact coarse levels included). A restored structure answers
// Query/QueryBatch/TopK bit-identically to the checkpointed original
// and keeps ingesting as its exact continuation; checkpoints taken
// under concurrent writers are consistent (the Merged guarantee).
// Only data-dependent state travels: what the seed fixes (hashes,
// signs, sample positions, π/ψ) is the paper's common knowledge (§5.5,
// footnote 4), held once per (algorithm, shape, seed) in a basis that
// every bias-aware sketch built by name on it shares.
// Legacy v1 payloads written by older builds still decode, and so do
// the 8-byte-aligned checkpoint files older builds wrote for
// memory-mapped serving; writers emit plain v2 only. Every row hashes with the paper's pairwise family, so
// a descriptor naming another hash family (older builds could write
// tabulation-hashed table sketches) fails with ErrHashUnsupported
// instead of restoring under the wrong hashes. Unmarshal rejects
// trailing bytes with the typed ErrTrailingData; all decode paths
// bound every length and count against the validated descriptor
// before allocating, so hostile bytes error rather than panic or
// exhaust memory.
//
// # Counter layout
//
// Every table-backed algorithm keeps its d×s counters as dense float64
// rows, written in place: the sketches are linear maps over signed
// rows, recovery subtracts a bias term from each row, and sites merge
// by adding rows, so a row is just a vector to add to. Counter Braids
// (Lu et al., the §2 related work) is a registry algorithm of its own
// ("counterbraids", legend alias "CB"): insert-only (negative or
// fractional deltas fail with the typed ErrInsertOnly) and decoded at
// query time (an overloaded braid fails with ErrDecodeBudget rather
// than answering wrong), at a fraction of the words exact counters
// need.
//
// # Sliding windows
//
// NewWindowed runs any linear algorithm over a pane-based sliding
// window, the shape monitoring traffic needs: point queries cover
// only the last WithPanes panes of the stream, and expired panes are
// forgotten. The open pane is a sharded sketch (multi-writer,
// contention-free), closed panes are immutable, and rotation —
// explicit Advance or clock-driven via WithPaneWidth, with WithClock
// injectable for tests — is a merge: the open pane freezes into the
// ring and panes older than the window fall out. Reads come from a
// cached merged replica (closed-pane sum + open-pane snapshot)
// published through an atomic pointer, so queries against a fresh
// window take zero locks; TopK serves windowed deviation heavy
// hitters the same way. Non-linear algorithms return ErrNotLinear.
//
// # Serving
//
// cmd/sketchd serves the stack over HTTP (stdlib net/http): named
// sketches per tenant — plain, sharded, or windowed — created from a
// JSON spec mirroring the facade options, ingested as wire-v2 batch
// frames (EncodeBatch client-side, DecodeBatch's hostile-input
// validation server-side), and queried
// through the same point/range/top-k paths as the library. A
// background scheduler checkpoints every sketch atomically to a data
// directory and the server restores them on boot; SIGTERM drains —
// in-flight requests finish, one final checkpoint lands — so a
// restart answers bit-identically to the process that was killed.
// Per-tenant in-flight caps shed overload with 429 rather than
// queueing, and a panicking handler is a 500, not a crash. The logic
// lives in internal/server; the binary is a thin flag-parsing skin.
//
// # Continuous distributed monitoring
//
// Monitor runs §1's distributed model continuously: sites ingest
// local streams and synchronize through a fan-in-k aggregation tree,
// each hop shipping a wire-v2 delta frame that carries only the
// replica shards whose epoch advanced since the last acknowledged
// sync — quiet sites cost nothing in steady state, and MonitorReport
// ledgers the realized communication against the paper's theoretical
// sites × sketch-size per-round budget (§5.5). Interior nodes cache
// per-child shard states and aggregate by linearity, so the
// coordinator's answers are bit-identical to a single sketch fed
// every update, even when sites crash mid-run and rejoin from their
// last checkpoint with one full-state resynchronization frame.
//
// # Accuracy guarantees under test
//
// Beyond bit-identity (batch ≡ element-wise, snapshot ≡ sequential,
// window ≡ live-pane recount), the test suite pins the estimates to
// the paper's theory: an accuracy-bound harness drives a seeded zipf
// workload through every registry algorithm and asserts observed
// point-query error sits inside the algorithm's (ε, δ) guarantee,
// with the bias-aware bounds taken relative to the residual x − β̂.
// Every constructor option is validated with the typed
// ErrInvalidOption — out-of-range values error, never silently clamp.
//
// # Static analysis & invariants
//
// The invariants above are enforced mechanically by cmd/sketchlint,
// the repository's own go/analysis multichecker (four analyzers under
// internal/analysis, run in CI and via
//
//	go vet -vettool="$(go run ./cmd/sketchlint -print-path)" ./...
//
// ): lockdefer requires every Lock/RLock in the concurrency layers to
// pair with a deferred unlock in the same function; hotpathalloc
// requires functions tagged with a "sketch:hotpath" doc-comment
// directive to contain no allocating constructs — the per-element
// update/query paths and the pooled batch kernels carry the tag, and
// testing.AllocsPerRun gates in the test suite pin the same paths to
// zero allocations at runtime; boundedmake requires every decode-side
// make in internal/codec to be dominated by a bound check against the
// validated descriptor; typederr requires exported functions and
// constructors to return typed or %w-wrapped errors and forbids panic
// in the codec. The suite runs green over the whole module with zero
// suppressions, and BENCH_11.json is the checked-in ns/op + allocs/op
// baseline these contracts protect (cmd/benchjson -diff compares two
// baselines and fails past a regression threshold).
//
// The subpackages repro/workload (the §5.1 synthetic datasets) and
// repro/bench (the figure harness) complete the public surface;
// everything under internal/ is an implementation detail.
//
// Start with README.md for usage; the runnable entry points are the
// examples/ programs and the commands under cmd/.
package repro
