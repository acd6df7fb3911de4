// Package server exposes participant selection and downstream evaluation as
// a JSON-over-HTTP service, so non-Go stacks can drive the library. State is
// an in-memory registry of consortiums keyed by caller-visible ids; many
// selections across consortiums run concurrently behind per-tenant admission
// control, sharing one Paillier randomizer PoolSet.
//
// Endpoints:
//
//	GET    /healthz                       liveness
//	GET    /v1/datasets                   built-in synthetic dataset names
//	POST   /v1/consortiums                              create a consortium
//	GET    /v1/consortiums/{id}                         consortium info
//	DELETE /v1/consortiums/{id}                         tear a consortium down
//	POST   /v1/consortiums/{id}/select                  run a selection method
//	POST   /v1/consortiums/{id}/evaluate                train a downstream model
//	POST   /v1/consortiums/{id}/rewards                 fair reward shares for a selection
//	POST   /v1/consortiums/{id}/participants            join a new participant (churn)
//	DELETE /v1/consortiums/{id}/participants/{index}    remove a participant (churn)
//
// Membership changes rewire the running consortium in place — surviving
// nodes keep their caches — and hold the same per-consortium run lock as
// selections, so an in-flight selection always completes against a stable
// roster.
//
// Selection and reward requests pass admission control (see Options.Admission):
// tenants are identified by the X-Tenant header ("default" when absent), and
// over-quota requests receive 429 with a Retry-After hint, or wait in a
// bounded queue for a global concurrency slot.
//
// Observability (internal/obs; consortium metric series are labelled with
// the consortium id as instance):
//
//	GET  /metrics                       Prometheus text exposition
//	GET  /metrics.json                  same registry as JSON
//	GET  /v1/trace                      protocol span dump (?reset=1 clears)
//	GET  /debug/vars                    expvar, including the registry
//	GET  /debug/pprof/...               net/http/pprof profiles
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"vfps"
	"vfps/internal/costmodel"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/transport"
)

// Server is the HTTP handler with its consortium registry.
type Server struct {
	reg     *registry
	adm     *admission
	pool    *vfps.PoolSet
	mux     *http.ServeMux
	obs     *obs.Observer
	reqs    *obs.CounterVec
	evicted *obs.Counter
	janitor chan struct{} // closed to stop the TTL janitor
	janDone chan struct{}
	idleTTL time.Duration
}

// Options configures the server's observability surface and admission
// limits.
type Options struct {
	// LogWriter, when set, receives the structured per-query JSON event log
	// (one slog line per query/selection).
	LogWriter io.Writer
	// SlowRing is the flight-recorder capacity for /v1/slow (<= 0 →
	// obs.DefaultSlowRing).
	SlowRing int
	// TracePeers lists remote observability base URLs (vfpsnode -obs-addr
	// listeners) whose spans /v1/trace merges into the cross-node span
	// forest.
	TracePeers []string
	// Admission bounds concurrent selections; the zero value admits
	// everything.
	Admission AdmissionConfig
	// IdleTTL, when positive, evicts consortiums untouched for that long
	// (their learned pack width is kept for successors of the same shape).
	IdleTTL time.Duration
	// PoolWorkers sizes the shared Paillier randomizer pool attached to
	// every consortium (<= 0 → 1).
	PoolWorkers int
}

// New builds the server with its routes and a live observer: every consortium
// it creates reports metrics and spans through the /metrics, /v1/trace and
// /debug endpoints.
func New() *Server { return NewWithOptions(Options{}) }

// NewWithOptions is New with the observability surface configured.
func NewWithOptions(opts Options) *Server {
	o := obs.NewObserver(obs.DefaultTraceCapacity)
	o.Trace.SetNode("serve")
	if opts.LogWriter != nil || opts.SlowRing > 0 {
		o.Events = obs.NewQueryLog(opts.LogWriter, opts.SlowRing)
	}
	o.SetTracePeers(opts.TracePeers)
	workers := opts.PoolWorkers
	if workers <= 0 {
		workers = 1
	}
	s := &Server{
		reg:     newRegistry(),
		pool:    vfps.NewPoolSet(0, workers),
		mux:     http.NewServeMux(),
		obs:     o,
		idleTTL: opts.IdleTTL,
	}
	reg := o.Registry()
	obs.RegisterRuntimeMetrics(reg)
	// Pre-declare the protocol metric families so scrapers see them before
	// the first consortium runs.
	transport.DeclareMetrics(reg)
	he.DeclareMetrics(reg)
	costmodel.DeclareMetrics(reg)
	s.adm = newAdmission(opts.Admission, reg)
	s.reqs = reg.Counter("vfps_http_requests_total", "API requests served.", "method")
	s.evicted = reg.Counter("vfps_consortium_evictions_total",
		"Consortiums evicted by the idle-TTL janitor.").With()
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.HandleFunc("GET /v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"datasets": vfps.DatasetNames()})
	})
	s.mux.HandleFunc("POST /v1/consortiums", s.createConsortium)
	s.mux.HandleFunc("GET /v1/consortiums/{id}", s.getConsortium)
	s.mux.HandleFunc("DELETE /v1/consortiums/{id}", s.deleteConsortium)
	s.mux.HandleFunc("POST /v1/consortiums/{id}/select", s.selectParticipants)
	s.mux.HandleFunc("POST /v1/consortiums/{id}/evaluate", s.evaluate)
	s.mux.HandleFunc("POST /v1/consortiums/{id}/rewards", s.rewards)
	s.mux.HandleFunc("POST /v1/consortiums/{id}/participants", s.joinParticipant)
	s.mux.HandleFunc("DELETE /v1/consortiums/{id}/participants/{index}", s.leaveParticipant)
	o.Routes(s.mux)
	if opts.IdleTTL > 0 {
		s.janitor = make(chan struct{})
		s.janDone = make(chan struct{})
		go s.runJanitor(opts.IdleTTL)
	}
	return s
}

// runJanitor periodically evicts idle consortiums, preserving their learned
// pack width for future same-shape consortiums.
func (s *Server) runJanitor(ttl time.Duration) {
	defer close(s.janDone)
	tick := ttl / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.janitor:
			return
		case <-t.C:
			for _, e := range s.reg.expire(ttl) {
				s.teardown(e)
				s.evicted.Inc()
			}
		}
	}
}

// teardown retires an already-unlinked entry: waits out any in-flight run,
// banks the learned pack width, and closes the consortium.
func (s *Server) teardown(e *entry) {
	e.runMu.Lock()
	defer e.runMu.Unlock()
	s.reg.recordHint(e.hintKey, e.cons.PackWidthHint())
	e.cons.Close()
}

// BeginDrain stops admitting new selection work (already-queued requests
// still run to completion).
func (s *Server) BeginDrain() { s.adm.BeginDrain() }

// Drain blocks until every admitted selection has finished, or ctx expires.
func (s *Server) Drain(ctx context.Context) error { return s.adm.Drain(ctx) }

// Close stops the janitor and tears down every consortium plus the shared
// randomizer pool. The server must not serve requests afterwards.
func (s *Server) Close() {
	if s.janitor != nil {
		close(s.janitor)
		<-s.janDone
	}
	for _, e := range s.reg.drainAll() {
		s.teardown(e)
	}
	s.pool.Close()
}

// Observer exposes the server's observer (for embedding and tests).
func (s *Server) Observer() *obs.Observer { return s.obs }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.reqs.With(r.Method).Inc()
	s.mux.ServeHTTP(w, r)
}

type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...)})
}

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// lookup pins the consortium entry for the request's {id}. Callers must
// e.release() when done (pinning fences the idle-TTL janitor).
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*entry, bool) {
	id := r.PathValue("id")
	e, ok := s.reg.acquire(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown consortium %q", id)
		return nil, false
	}
	return e, true
}

// tenantOf extracts the quota identity for a request.
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// admit runs admission control for a selection-class request, writing the
// rejection response (with Retry-After when applicable) on failure.
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (*lease, bool) {
	l, err := s.adm.acquire(r.Context(), tenantOf(r))
	if err != nil {
		var ae *admitError
		if errors.As(err, &ae) {
			s.adm.rejected.With(ae.reason).Inc()
			if ae.retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(ae.retryAfter))
			}
			writeError(w, ae.status, "%s", ae.msg)
		} else {
			writeError(w, http.StatusInternalServerError, "%v", err)
		}
		return nil, false
	}
	return l, true
}

// heOps prices a selection for the tenant HE budget: the primitive
// operations the cost model attributes to encryption-side work.
func heOps(c costmodel.Raw) int64 {
	return c.Encryptions + c.Decryptions + c.CipherAdds
}

// CreateRequest builds a consortium from a built-in synthetic dataset (CSV
// upload flows should pre-process into a dataset client-side and are out of
// scope for the demo server).
type CreateRequest struct {
	Dataset     string  `json:"dataset"`
	Rows        int     `json:"rows"`
	Parties     int     `json:"parties"`
	Scheme      string  `json:"scheme"`
	DPEpsilon   float64 `json:"dpEpsilon"`
	SplitSeed   int64   `json:"splitSeed"`
	ShuffleSeed int64   `json:"shuffleSeed"`
	KeyBits     int     `json:"keyBits"` // Paillier modulus size (0 → library default)
	// Ciphertext payload knobs (Paillier only; see DESIGN.md §14).
	Pack         bool `json:"pack"`         // slot-pack ciphertexts
	PackAdaptive bool `json:"packAdaptive"` // renegotiate slot width per round
	ChunkBytes   int  `json:"chunkBytes"`   // stream collection responses in chunks
	DeltaCache   bool `json:"deltaCache"`   // cross-round delta encoding
	// ShardWorkers >= 2 shards the aggregation tree reduce across that many
	// in-process workers (DESIGN.md §15).
	ShardWorkers int `json:"shardWorkers"`
	// Parallelism pins per-role HE pipeline concurrency (0 → automatic).
	Parallelism int `json:"parallelism"`
	// SimCache memoises similarity reports by (roster, queries, variant, K)
	// across this consortium's selections, so a recurring membership skips
	// the encrypted similarity phase (DESIGN.md §16).
	SimCache bool `json:"simCache"`
}

// CreateResponse identifies the new consortium.
type CreateResponse struct {
	ID      string `json:"id"`
	Parties int    `json:"parties"`
	Rows    int    `json:"rows"`
	Columns int    `json:"columns"`
}

func (s *Server) createConsortium(w http.ResponseWriter, r *http.Request) {
	var req CreateRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Rows <= 0 {
		req.Rows = 1000
	}
	if req.Parties <= 0 {
		req.Parties = 4
	}
	d, err := vfps.GenerateDataset(req.Dataset, req.Rows)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	pt, err := vfps.VerticalSplit(d, req.Parties, req.SplitSeed+1)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Allocate the id first so the consortium's metric series carry it as
	// their instance label.
	id := s.reg.allocID()
	hintKey := hintKeyFor(req.Dataset, req.Rows, req.Parties, req.Scheme)
	cfg := vfps.Config{
		Partition:    pt,
		Labels:       d.Y,
		Classes:      d.Classes,
		Scheme:       req.Scheme,
		DPEpsilon:    req.DPEpsilon,
		ShuffleSeed:  req.ShuffleSeed,
		KeyBits:      req.KeyBits,
		Pack:         req.Pack,
		PackAdaptive: req.PackAdaptive,
		ChunkBytes:   req.ChunkBytes,
		DeltaCache:   req.DeltaCache,
		ShardWorkers: req.ShardWorkers,
		Parallelism:  req.Parallelism,
		SimCache:     req.SimCache,
		SharedPool:   s.pool,
		Obs:          s.obs,
		Instance:     id,
	}
	if req.Pack && req.PackAdaptive {
		// Seed the adaptive negotiation with the width a same-shape
		// predecessor learned, skipping its warm-up round.
		cfg.PackWidthHint = s.reg.hintFor(hintKey)
	}
	cons, err := vfps.NewConsortium(context.Background(), cfg)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.reg.add(id, hintKey, cons)
	writeJSON(w, http.StatusCreated, CreateResponse{
		ID: id, Parties: cons.P(), Rows: cons.N(), Columns: d.F(),
	})
}

func (s *Server) getConsortium(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	writeJSON(w, http.StatusOK, map[string]any{
		"parties":       e.cons.P(),
		"partyNames":    e.cons.PartyNames(),
		"rows":          e.cons.N(),
		"classes":       e.cons.Classes(),
		"shardWorkers":  e.cons.ShardWorkers(),
		"packWidthHint": e.cons.PackWidthHint(),
	})
}

func (s *Server) deleteConsortium(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e, ok := s.reg.remove(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown consortium %q", id)
		return
	}
	// teardown waits on runMu, so an in-flight selection finishes before the
	// cluster closes; new requests already 404.
	s.teardown(e)
	w.WriteHeader(http.StatusNoContent)
}

// SelectRequest runs one selection method.
type SelectRequest struct {
	Method     string `json:"method"` // vfps-sm (default), vfps-sm-base, random, shapley, vfmine
	Count      int    `json:"count"`
	K          int    `json:"k"`
	NumQueries int    `json:"numQueries"`
	Seed       int64  `json:"seed"`
	TopK       string `json:"topk"` // fagin|base|threshold (vfps-sm only)
	Stratified bool   `json:"stratified"`
	// Optimizer picks the submodular maximizer: "greedy" (default), "lazy"
	// or "stochastic" (vfps-sm only).
	Optimizer string `json:"optimizer"`
}

// SelectResponse reports the outcome.
type SelectResponse struct {
	Method           string    `json:"method"`
	Selected         []int     `json:"selected"`
	Scores           []float64 `json:"scores,omitempty"`
	AvgCandidates    float64   `json:"avgCandidates,omitempty"`
	ProjectedSeconds float64   `json:"projectedSeconds"`
	WallMillis       int64     `json:"wallMillis"`
}

func (s *Server) selectParticipants(w http.ResponseWriter, r *http.Request) {
	l, ok := s.admit(w, r)
	if !ok {
		return
	}
	var spent int64
	defer func() { l.Release(spent) }()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req SelectRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Count <= 0 {
		req.Count = e.cons.P() / 2
	}
	method := vfps.Method(strings.ToLower(req.Method))
	if req.Method == "" {
		method = vfps.MethodVFPS
	}
	opts := vfps.SelectOptions{
		K: req.K, NumQueries: req.NumQueries, Seed: req.Seed,
		TopK: req.TopK, Stratified: req.Stratified, Optimizer: req.Optimizer,
	}
	resp := SelectResponse{Method: string(method)}
	// Protocol runs mutate per-consortium state (delta caches, pack
	// negotiation); serialize per consortium, not per server.
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if method == vfps.MethodVFPS || method == vfps.MethodVFPSBase {
		opts.Base = method == vfps.MethodVFPSBase
		sel, err := e.cons.Select(r.Context(), req.Count, opts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		spent = heOps(sel.Counts)
		s.reg.recordHint(e.hintKey, e.cons.PackWidthHint())
		resp.Selected = sel.Selected
		resp.AvgCandidates = sel.AvgCandidates
		resp.ProjectedSeconds = sel.ProjectedSeconds
		resp.WallMillis = sel.WallTime.Milliseconds()
	} else {
		sel, err := e.cons.SelectWith(r.Context(), method, req.Count, opts)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		resp.Selected = sel.Selected
		resp.Scores = sel.Scores
		resp.ProjectedSeconds = sel.ProjectedSeconds
		resp.WallMillis = sel.WallTime.Milliseconds()
	}
	writeJSON(w, http.StatusOK, resp)
}

// EvaluateRequest trains one downstream model.
type EvaluateRequest struct {
	Model     string `json:"model"` // KNN|LR|MLP|GBDT
	Parties   []int  `json:"parties"`
	K         int    `json:"k"`
	MaxEpochs int    `json:"maxEpochs"`
	Seed      int64  `json:"seed"`
}

// EvaluateResponse reports downstream quality and federated cost.
type EvaluateResponse struct {
	Model            string  `json:"model"`
	Accuracy         float64 `json:"accuracy"`
	MacroF1          float64 `json:"macroF1"`
	AUC              float64 `json:"auc,omitempty"`
	ProjectedSeconds float64 `json:"projectedSeconds"`
}

func (s *Server) evaluate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req EvaluateRequest
	if !readJSON(w, r, &req) {
		return
	}
	if req.Model == "" {
		req.Model = string(vfps.ModelKNN)
	}
	ev, err := e.cons.Evaluate(vfps.ModelName(strings.ToUpper(req.Model)), req.Parties, vfps.EvalOptions{
		K: req.K, MaxEpochs: req.MaxEpochs, Seed: req.Seed,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, EvaluateResponse{
		Model:            string(ev.Model),
		Accuracy:         ev.Accuracy,
		MacroF1:          ev.MacroF1,
		AUC:              ev.AUC,
		ProjectedSeconds: ev.ProjectedSeconds,
	})
}

// RewardsRequest computes fair shares after a (fresh) similarity run.
type RewardsRequest struct {
	K          int   `json:"k"`
	NumQueries int   `json:"numQueries"`
	Seed       int64 `json:"seed"`
}

// RewardsResponse carries per-participant shares.
type RewardsResponse struct {
	Shares []float64 `json:"shares"`
}

func (s *Server) rewards(w http.ResponseWriter, r *http.Request) {
	l, ok := s.admit(w, r)
	if !ok {
		return
	}
	var spent int64
	defer func() { l.Release(spent) }()
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req RewardsRequest
	if !readJSON(w, r, &req) {
		return
	}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	sel, err := e.cons.Select(r.Context(), e.cons.P(), vfps.SelectOptions{
		K: req.K, NumQueries: req.NumQueries, Seed: req.Seed,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	spent = heOps(sel.Counts)
	shares, err := vfps.RewardShares(sel)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, RewardsResponse{Shares: shares})
}

// JoinRequest admits a new participant to a running consortium. The demo
// server holds only synthetic datasets, so the joiner's vertical slice is
// synthesised from the consortium's own data: a seeded noisy clone of an
// existing party's columns. Noise 0 yields an exact duplicate (the paper's
// Fig. 6 redundancy case — the selection should never pick both).
type JoinRequest struct {
	// CloneOf is the original party index whose columns seed the joiner
	// (default 0; must be within the construction-time partition).
	CloneOf int `json:"cloneOf"`
	// Noise is the amplitude of seeded uniform jitter added per entry.
	Noise float64 `json:"noise"`
	// Seed drives the jitter.
	Seed int64 `json:"seed"`
}

// JoinResponse names the new party and reports the post-join roster size.
type JoinResponse struct {
	Name    string `json:"name"`
	Parties int    `json:"parties"`
}

func (s *Server) joinParticipant(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	var req JoinRequest
	if !readJSON(w, r, &req) {
		return
	}
	pt := e.cons.Partition()
	if req.CloneOf < 0 || req.CloneOf >= pt.P() {
		writeError(w, http.StatusBadRequest, "cloneOf %d out of range [0,%d)", req.CloneOf, pt.P())
		return
	}
	src := pt.Parties[req.CloneOf]
	rng := rand.New(rand.NewSource(req.Seed))
	features := make([][]float64, src.Rows)
	for i := range features {
		row := make([]float64, src.Cols)
		for j := range row {
			row[j] = src.At(i, j)
			if req.Noise > 0 {
				row[j] += req.Noise * (2*rng.Float64() - 1)
			}
		}
		features[i] = row
	}
	// Membership changes take the same lock as selections: an in-flight run
	// completes against a stable roster before the rewire starts.
	e.runMu.Lock()
	defer e.runMu.Unlock()
	name, err := e.cons.AddParticipant(features)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, JoinResponse{Name: name, Parties: e.cons.P()})
}

func (s *Server) leaveParticipant(w http.ResponseWriter, r *http.Request) {
	e, ok := s.lookup(w, r)
	if !ok {
		return
	}
	defer e.release()
	index, err := strconv.Atoi(r.PathValue("index"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad participant index %q", r.PathValue("index"))
		return
	}
	e.runMu.Lock()
	defer e.runMu.Unlock()
	if err := e.cons.RemoveParticipant(index); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "no participant") {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"parties": e.cons.P()})
}
