package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"repro"
)

// Request-size and batch-size bounds. The ingest bound comfortably
// fits a MaxBatchLen wire frame plus framing; the others keep hostile
// query strings from turning one request into a full-vector scan.
const (
	maxIngestBody   = 20 << 20
	maxCreateBody   = 1 << 20
	maxQueryBatch   = 4096
	maxRangeWidth   = 1 << 16
	rangeChunkWords = 1024
)

// info is the JSON shape describing one sketch.
type info struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	Kind   string `json:"kind"`
	Algo   string `json:"algo"`
	Dim    int    `json:"dim"`
	Words  int    `json:"words"`
	Spec   Spec   `json:"spec"`
}

func entryInfo(e *entry) info {
	return info{
		Tenant: e.tenant, Name: e.name,
		Kind: e.h.kind(), Algo: e.h.algo(),
		Dim: e.h.dim(), Words: e.h.words(),
		Spec: e.spec,
	}
}

// deviator is repro.Deviator with stable JSON field names.
type deviator struct {
	Index     int     `json:"index"`
	Estimate  float64 `json:"estimate"`
	Deviation float64 `json:"deviation"`
}

// Handler returns the server's HTTP surface:
//
//	GET    /healthz
//	POST   /v1/checkpoint
//	GET    /v1/{tenant}/sketches
//	POST   /v1/{tenant}/sketches
//	GET    /v1/{tenant}/sketches/{name}
//	DELETE /v1/{tenant}/sketches/{name}
//	POST   /v1/{tenant}/sketches/{name}/ingest?slot=N
//	GET    /v1/{tenant}/sketches/{name}/query?i=...&i=...
//	GET    /v1/{tenant}/sketches/{name}/range?lo=L&hi=H
//	GET    /v1/{tenant}/sketches/{name}/topk?k=K
//
// Every tenant route passes the per-tenant in-flight limiter (429 +
// Retry-After when saturated) and the draining gate (503 once Drain
// has begun); the whole mux sits behind a panic-recovery middleware
// that turns a panicking handler into a 500 without killing the
// process.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/checkpoint", s.handleCheckpoint)
	mux.HandleFunc("GET /v1/{tenant}/sketches", s.tenant(s.handleList))
	mux.HandleFunc("POST /v1/{tenant}/sketches", s.tenant(s.handleCreate))
	mux.HandleFunc("GET /v1/{tenant}/sketches/{name}", s.tenant(s.handleInfo))
	mux.HandleFunc("DELETE /v1/{tenant}/sketches/{name}", s.tenant(s.handleDelete))
	mux.HandleFunc("POST /v1/{tenant}/sketches/{name}/ingest", s.tenant(s.handleIngest))
	mux.HandleFunc("GET /v1/{tenant}/sketches/{name}/query", s.tenant(s.handleQuery))
	mux.HandleFunc("GET /v1/{tenant}/sketches/{name}/range", s.tenant(s.handleRange))
	mux.HandleFunc("GET /v1/{tenant}/sketches/{name}/topk", s.tenant(s.handleTopK))
	return s.recoverPanics(mux)
}

// recoverPanics is the outermost middleware: a panicking handler (a
// poisoned sketch, an overloaded counterbraids decode) becomes a
// 500 and the process keeps serving every other tenant.
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { // deliberate connection abort
				panic(v)
			}
			writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", v))
		}()
		next.ServeHTTP(w, r)
	})
}

// tenant wraps a tenant-scoped handler with name validation, the
// draining gate, and the in-flight limiter. The limiter slot is held
// for the whole request and released on the way out — including a
// panicking way out, so a shed tenant's slots can't leak.
func (s *Server) tenant(h func(w http.ResponseWriter, r *http.Request, tenant string)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := r.PathValue("tenant")
		if !validName(tenant) {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %q", ErrBadName, tenant))
			return
		}
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, ErrDraining)
			return
		}
		if !s.lim.acquire(tenant) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, fmt.Errorf("%w: %s", ErrOverloaded, tenant))
			return
		}
		defer s.lim.release(tenant)
		h(w, r, tenant)
	}
}

// handleHealth answers 200 "ok", or 503 "degraded" with the error
// text while the last scheduled checkpoint pass has failed — a
// checkpoint loop that keeps failing must not look healthy.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if last, _ := s.ckptErr.Load().(errBox); last.err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "degraded", "draining": s.draining.Load(), "error": last.err.Error(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "draining": s.draining.Load()})
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, ErrDraining)
		return
	}
	if err := s.CheckpointAll(); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": len(s.reg.all())})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request, tenant string) {
	es := s.reg.list(tenant)
	infos := make([]info, len(es))
	for i, e := range es {
		infos[i] = entryInfo(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"sketches": infos})
}

// createRequest is the create body: a name plus the spec, flat.
type createRequest struct {
	Name string `json:"name"`
	Spec
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request, tenant string) {
	var req createRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxCreateBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("%w: %w", ErrBadSpec, err))
		return
	}
	e, err := s.reg.create(tenant, req.Name, req.Spec)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, entryInfo(e))
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.reg.get(tenant, r.PathValue("name"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, entryInfo(e))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request, tenant string) {
	name := r.PathValue("name")
	if !s.reg.remove(tenant, name) {
		writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s/%s", ErrNotFound, tenant, name))
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// insertOnlyAlgo is the one algorithm that holds non-negative integer
// counts only: a counterbraids sketch panics on any other delta.
const insertOnlyAlgo = "counterbraids"

// checkDeltas rejects a batch the named algorithm cannot absorb, so a
// client's bad delta is a 400 and no counter moves, whatever kind
// serves the sketch. A counterbraids sketch takes non-negative integer
// counts only (ErrInsertOnly), and no sketch takes an infinite delta:
// a +Inf and a −Inf on one key leave NaN in every bucket the key
// hashes to, for good, since merges carry it.
func checkDeltas(algo string, deltas []float64) error {
	if algo == insertOnlyAlgo {
		for j, d := range deltas {
			if d < 0 || d >= 1<<64 || d != math.Trunc(d) {
				return fmt.Errorf("%w: delta %v at batch element %d", repro.ErrInsertOnly, d, j)
			}
		}
	}
	for j, d := range deltas {
		if !(math.Abs(d) <= math.MaxFloat64) {
			return fmt.Errorf("server: delta %v at batch element %d is not finite", d, j)
		}
	}
	return nil
}

// handleIngest applies one wire-v2 batch frame. Decode validates the
// whole frame — framing, element count, every index against the
// sketch's dimension, NaN — and checkDeltas the deltas the algorithm
// accepts and rejects ±Inf, all before a single update is applied, so
// a hostile payload is a 400, never a partial write.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.reg.get(tenant, r.PathValue("name"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	slot := 0
	if v := r.URL.Query().Get("slot"); v != "" {
		if slot, err = strconv.Atoi(v); err != nil || slot < 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: slot %q", ErrBadSpec, v))
			return
		}
	}
	idx, deltas, err := repro.DecodeBatch(http.MaxBytesReader(w, r.Body, maxIngestBody), e.h.dim())
	if err == nil {
		err = checkDeltas(e.h.algo(), deltas)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := e.h.updateBatch(slot, idx, deltas); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"applied": len(idx)})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.reg.get(tenant, r.PathValue("name"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	params := r.URL.Query()["i"]
	if len(params) == 0 || len(params) > maxQueryBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: need 1..%d i= params, got %d", ErrBadSpec, maxQueryBatch, len(params)))
		return
	}
	idx := make([]int, len(params))
	for j, p := range params {
		i, err := strconv.Atoi(p)
		if err != nil || i < 0 || i >= e.h.dim() {
			writeError(w, http.StatusBadRequest, fmt.Errorf("%w: index %q out of [0,%d)", ErrBadSpec, p, e.h.dim()))
			return
		}
		idx[j] = i
	}
	out := make([]float64, len(idx))
	if err := e.h.queryBatch(idx, out); err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"estimates": out})
}

// handleRange sums estimates over [lo, hi] in fixed-size QueryBatch
// chunks — the interval is capped, so one request can't demand a
// full-vector recovery.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.reg.get(tenant, r.PathValue("name"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	lo, err1 := strconv.Atoi(r.URL.Query().Get("lo"))
	hi, err2 := strconv.Atoi(r.URL.Query().Get("hi"))
	switch {
	case err1 != nil || err2 != nil || lo < 0 || hi < lo || hi >= e.h.dim():
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: need 0 <= lo <= hi < %d", ErrBadSpec, e.h.dim()))
		return
	case hi-lo+1 > maxRangeWidth:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: range width %d exceeds %d", ErrBadSpec, hi-lo+1, maxRangeWidth))
		return
	}
	idx := make([]int, rangeChunkWords)
	out := make([]float64, rangeChunkWords)
	var sum float64
	for base := lo; base <= hi; base += rangeChunkWords {
		m := hi - base + 1
		if m > rangeChunkWords {
			m = rangeChunkWords
		}
		for j := 0; j < m; j++ {
			idx[j] = base + j
		}
		if err := e.h.queryBatch(idx[:m], out[:m]); err != nil {
			writeError(w, statusOf(err), err)
			return
		}
		for _, v := range out[:m] {
			sum += v
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"lo": lo, "hi": hi, "sum": sum})
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request, tenant string) {
	e, err := s.reg.get(tenant, r.PathValue("name"))
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	k, err := strconv.Atoi(r.URL.Query().Get("k"))
	if err != nil || k <= 0 || k > maxQueryBatch {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("%w: need 1 <= k <= %d", ErrBadSpec, maxQueryBatch))
		return
	}
	devs, err := e.h.topK(k)
	if err != nil {
		writeError(w, statusOf(err), err)
		return
	}
	res := make([]deviator, len(devs))
	for i, d := range devs {
		res[i] = deviator{Index: d.Index, Estimate: d.Estimate, Deviation: d.Deviation}
	}
	writeJSON(w, http.StatusOK, map[string]any{"topk": res})
}

// statusOf maps a typed error to its HTTP status. Facade validation
// errors are client mistakes (400); anything unrecognized is a 500.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrExists):
		return http.StatusConflict
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrBadSpec), errors.Is(err, ErrBadName),
		errors.Is(err, repro.ErrInvalidOption), errors.Is(err, repro.ErrUnknownAlgorithm),
		errors.Is(err, repro.ErrNotLinear), errors.Is(err, repro.ErrBadBatch),
		errors.Is(err, repro.ErrInsertOnly), errors.Is(err, repro.ErrNoBias):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
