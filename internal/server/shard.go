package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"sprout/internal/obs"
)

// forwardedByHeader marks a request already routed by a peer. It bounds
// proxy forwarding to one hop (a misconfigured ring degrades to local
// service instead of looping) and keeps peer-to-peer gathers — trace
// parts, fleet scrapes — from fanning out recursively.
const forwardedByHeader = "X-Sprout-Forwarded-By"

// This file is the multi-replica layer: a consistent-hash ring assigns
// every submission an owning replica, and ShardHandler gives each
// sproutd a thin proxy mode so a client that talks to the "wrong"
// replica still lands on the right one, failing over along the ring
// past dead or draining replicas. Routing is by content: the
// idempotency key when the client supplies one, else the SHA-256 of the
// document bytes — so retries and equivalent submissions from different
// front-ends converge on the same replica, where the store's dedupe can
// singleflight them.

// ringVnodes is the virtual-node multiplier: enough points that three
// replicas split the key space within a few percent of evenly, small
// enough that building a ring is negligible.
const ringVnodes = 64

// hashRing is a consistent-hash ring over replica names. Adding or
// removing one replica remaps only the keys it owned, which is what
// keeps a rolling restart from reshuffling every in-flight job.
type hashRing struct {
	points []ringPoint // sorted by hash
	nodes  []string
}

type ringPoint struct {
	hash uint64
	node string
}

func newHashRing(nodes []string) *hashRing {
	r := &hashRing{nodes: append([]string(nil), nodes...)}
	for _, n := range nodes {
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", n, v)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// ringHash hashes a ring key. Raw FNV-1a of short strings that share a
// prefix (replica URLs with a vnode suffix) clusters into narrow bands,
// which collapses the ring; the 64-bit avalanche finalizer on top
// spreads those clusters across the whole space.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, s)
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sequence returns every replica in failover order for the key: the
// owner first, then the remaining distinct replicas walking the ring.
// A client that exhausts the sequence has genuinely tried everyone.
func (r *hashRing) sequence(key string) []string {
	if len(r.points) == 0 {
		return nil
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.nodes))
	out := make([]string, 0, len(r.nodes))
	for i := 0; i < len(r.points) && len(out) < len(r.nodes); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// contentKey is the shard-routing key of a submission: the idempotency
// key when present, else the hex SHA-256 of the raw document bytes.
// Byte-identical retries therefore always land on the same replica.
// (Byte-different but equivalent documents may land on different
// replicas; each replica's canonical-hash dedupe still collapses the
// copies it receives.)
func contentKey(doc []byte, idemKey string) string {
	if idemKey != "" {
		return idemKey
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

// ShardHandler wraps the engine's HTTP API in a thin proxy: submissions
// whose consistent-hash owner is another replica are forwarded there
// (failing over in ring order past replicas that are down or draining),
// and status/result/trace reads for jobs this replica does not hold are
// scattered to the peers. self and peers are base URLs; self names this
// replica on the ring and must appear in every replica's configuration
// identically.
func (e *Engine) ShardHandler(self string, peers []string, client *http.Client) http.Handler {
	if client == nil {
		client = http.DefaultClient
	}
	local := e.Handler()
	p := &shardProxy{
		engine: e, local: local, self: self, peers: append([]string(nil), peers...),
		ring: newHashRing(append([]string{self}, peers...)), http: client,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", p.submit)
	mux.HandleFunc("GET /v1/jobs/{id}", p.read)
	mux.HandleFunc("GET /v1/jobs/{id}/result", p.read)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", p.trace)
	mux.HandleFunc("GET /v1/fleet/metrics", p.fleetMetrics)
	// Liveness, readiness, metrics and raw trace parts are always answered
	// locally: they describe this replica, not the cluster.
	mux.Handle("/", local)
	return mux
}

type shardProxy struct {
	engine *Engine
	local  http.Handler
	self   string
	peers  []string
	ring   *hashRing
	http   *http.Client
}

// captureWriter tees the response body (bounded) so the proxy can read
// the job id out of the status JSON it just relayed.
type captureWriter struct {
	http.ResponseWriter
	buf bytes.Buffer
}

func (c *captureWriter) Write(b []byte) (int, error) {
	if c.buf.Len() < maxBodyBytes {
		c.buf.Write(b)
	}
	return c.ResponseWriter.Write(b)
}

// jobIDFromBody extracts the job id from a submit response body ("" when
// the body is not a status document).
func jobIDFromBody(body []byte) string {
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		return ""
	}
	return st.ID
}

// errPeerDraining marks a peer that answered a forwarded submission with
// 503. handleSubmit sends 503 only for sprout.ErrShuttingDown, before
// anything is stored, so the peer will not take the job and the next
// replica on the ring must.
var errPeerDraining = errors.New("peer draining")

// submit routes a submission to its owning replica. The body must be
// read up front to compute the routing key; it is re-wrapped for
// whichever handler ends up serving it. A replica that is unreachable
// or draining — this one included — is skipped in ring order; 429 and
// other rejections are relayed, since retrying the same owner keeps
// dedupe on one replica and a 4xx is the same answer everywhere.
//
// Every hop is traced: the proxy opens a tracer that continues the
// client's X-Sprout-Trace (or starts the trace when there is none), one
// "ShardSubmit" span per attempted replica, and forwards the span's own
// header so the executing replica's job span nests under the hop that
// delivered it. The proxy's spans are filed under the resulting job id,
// ready to be stitched into the job's cross-replica trace.
func (p *shardProxy) submit(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(forwardedByHeader) != "" {
		// Already routed by a peer: serve locally, never re-forward. This
		// bounds any misconfigured ring to a single hop instead of a loop.
		p.local.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read body: %w", err))
		return
	}
	if len(body) > maxBodyBytes {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", maxBodyBytes))
		return
	}
	// The proxy's hop spans record under the node name (matching the job
	// tracer's replica attribution); the self URL is only a ring address.
	replica := p.engine.cfg.NodeName
	if replica == "" {
		replica = p.self
	}
	topts := []obs.Option{obs.WithReplica(replica)}
	if tc, ok := obs.ParseTraceContext(r.Header.Get(obs.TraceHeaderName)); ok {
		topts = append(topts, obs.WithTraceID(tc.TraceID), obs.WithRemoteParent(tc.Parent))
	}
	tr := obs.New(topts...)
	ctx := obs.WithTracer(r.Context(), tr)

	key := contentKey(body, r.Header.Get("Idempotency-Key"))
	for i, node := range p.ring.sequence(key) {
		if i > 0 {
			p.engine.count(obs.MShardFailovers, 1)
		}
		if node == p.self && !p.engine.Accepting() {
			continue
		}
		sctx, sp := obs.StartSpan(ctx, "ShardSubmit", obs.A("peer", node), obs.A("attempt", i+1))
		if node == p.self {
			p.serveLocalSubmit(w, r, sctx, body, tr, sp)
			return
		}
		jobID, err := p.forward(w, r, node, body, obs.TraceHeader(sctx))
		sp.Fail(err)
		sp.End()
		if err == nil {
			p.engine.AddTracePart(jobID, tr.TracePart())
			return
		}
	}
	// Every replica was skipped, this one because it is draining: the
	// local handler answers 503 with Retry-After, as a lone replica would.
	sctx, sp := obs.StartSpan(ctx, "ShardSubmit", obs.A("peer", p.self), obs.A("fallback", true))
	p.serveLocalSubmit(w, r, sctx, body, tr, sp)
}

// serveLocalSubmit hands the submission to the local engine with the
// proxy hop's trace header attached, then files the proxy spans under
// the job id the engine answered with.
func (p *shardProxy) serveLocalSubmit(w http.ResponseWriter, r *http.Request, sctx context.Context, body []byte, tr *obs.Tracer, sp *obs.Span) {
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	if hdr := obs.TraceHeader(sctx); hdr != "" {
		r2.Header.Set(obs.TraceHeaderName, hdr)
	}
	cw := &captureWriter{ResponseWriter: w}
	p.local.ServeHTTP(cw, r2)
	sp.End()
	p.engine.AddTracePart(jobIDFromBody(cw.buf.Bytes()), tr.TracePart())
}

// forward proxies the submission to a peer and relays the peer's
// answer, returning the job id it carries ("" on rejection bodies) so
// the caller can file its hop spans under the job. A non-nil error
// means nothing was written and the caller fails over: the peer was
// unreachable, or it answered 503 (errPeerDraining).
func (p *shardProxy) forward(w http.ResponseWriter, r *http.Request, base string, body []byte, traceHeader string) (string, error) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(forwardedByHeader, p.self)
	if traceHeader != "" {
		req.Header.Set(obs.TraceHeaderName, traceHeader)
	}
	resp, err := p.http.Do(req)
	if err != nil {
		p.engine.cfg.Log.Warn("shard forward failed", "peer", base, "err", err)
		return "", fmt.Errorf("peer unreachable: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusServiceUnavailable {
		return "", errPeerDraining
	}
	cw := &captureWriter{ResponseWriter: w}
	relay(cw, resp)
	return jobIDFromBody(cw.buf.Bytes()), nil
}

// read serves job status/result/trace: locally when this replica holds
// the job, else scattered to the peers in ring order. A peer's 404
// keeps scattering; any other peer answer is relayed as-is.
func (p *shardProxy) read(w http.ResponseWriter, r *http.Request) {
	if p.engine.store.Get(r.PathValue("id")) != nil || r.Header.Get(forwardedByHeader) != "" {
		p.local.ServeHTTP(w, r)
		return
	}
	for _, node := range p.ring.nodes {
		if node == p.self {
			continue
		}
		req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, node+r.URL.RequestURI(), nil)
		if err != nil {
			continue
		}
		req.Header.Set(forwardedByHeader, p.self)
		resp, err := p.http.Do(req)
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		relay(w, resp)
		return
	}
	// Nobody has it: answer with the local 404.
	p.local.ServeHTTP(w, r)
}

// trace serves the fleet-stitched Chrome trace for a job. The replica
// that knows the job gathers every peer's trace parts, merges them with
// its own, and serves one timeline; a replica that does not know the
// job relays to whichever peer does (whose stitcher gathers back from
// everyone, including this replica). A request already forwarded once
// is answered from local parts only — gathers never recurse.
func (p *shardProxy) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	forwarded := r.Header.Get(forwardedByHeader) != ""
	known := p.engine.store.Get(id) != nil || len(p.engine.TraceParts(id)) > 0
	if !known && !forwarded {
		p.read(w, r)
		return
	}
	if known && !forwarded {
		// Unreachable peers and 404s contribute nothing — a partial trace
		// is still a trace.
		var peer []obs.TracePart
		for _, rep := range p.fanOut(r.Context(), "/v1/jobs/"+id+"/traceparts") {
			var parts []obs.TracePart
			if rep.err == nil && json.Unmarshal(rep.body, &parts) == nil {
				peer = append(peer, parts...)
			}
		}
		if len(peer) > 0 {
			writeStitchedTrace(w, p.engine.cfg.Log, id, append(p.engine.TraceParts(id), peer...))
			return
		}
	}
	// No peer contributed (single replica, or everyone unreachable):
	// the local handler stitches what this replica holds, and keeps the
	// 202/404 semantics for unstarted or unknown jobs.
	p.local.ServeHTTP(w, r)
}

// peerReply is one peer's answer to a fan-out GET: the body of a 200
// and how long the request took, or why there is no body.
type peerReply struct {
	body []byte
	took time.Duration
	err  error
}

// fanOut GETs path from every peer concurrently, each under the fleet
// timeout and marked as forwarded so the peer answers from its own
// state instead of gathering again. Replies come back in peer order; a
// transport failure or a non-200 status is the reply's error.
func (p *shardProxy) fanOut(ctx context.Context, path string) []peerReply {
	replies := make([]peerReply, len(p.peers))
	var wg sync.WaitGroup
	for i, node := range p.peers {
		wg.Add(1)
		go func(i int, node string) {
			defer wg.Done()
			replies[i] = p.getPeer(ctx, node+path)
		}(i, node)
	}
	wg.Wait()
	return replies
}

// getPeer is one leg of fanOut.
func (p *shardProxy) getPeer(ctx context.Context, url string) peerReply {
	start := time.Now()
	pctx, cancel := context.WithTimeout(ctx, p.engine.cfg.FleetTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url, nil)
	if err != nil {
		return peerReply{err: err}
	}
	req.Header.Set(forwardedByHeader, p.self)
	resp, err := p.http.Do(req)
	if err != nil {
		return peerReply{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return peerReply{err: fmt.Errorf("unexpected status %d", resp.StatusCode)}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	return peerReply{body: body, took: time.Since(start), err: err}
}

// fleetMetrics scatter-gathers every replica's metrics snapshot. Peers
// are scraped concurrently, each under its own fleet timeout; an
// unreachable peer keeps its row with the error recorded, so a partial
// fleet view is visibly partial ("replica down") rather than silently
// smaller ("replica missing"). Each failed scrape counts
// fleet.peer_errors; each good one observes fleet.scrape_ms.
func (p *shardProxy) fleetMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(forwardedByHeader) != "" {
		p.local.ServeHTTP(w, r)
		return
	}
	p.engine.syncGauges()
	self := p.engine.metricsDoc()
	rows := []FleetReplica{{Replica: p.self, Self: true, Metrics: &self}}
	for i, rep := range p.fanOut(r.Context(), "/metrics?format=json") {
		row := FleetReplica{Replica: p.peers[i]}
		m := &Metrics{}
		err := rep.err
		if err == nil {
			err = json.Unmarshal(rep.body, m)
		}
		if err != nil {
			p.engine.count(obs.MFleetPeerErrors, 1)
			row.Error = err.Error()
		} else {
			row.Metrics = m
			if p.engine.cfg.Tracer.Enabled() {
				p.engine.cfg.Tracer.Histogram(obs.MFleetScrapeMS).Observe(float64(rep.took.Nanoseconds()) / 1e6)
			}
		}
		rows = append(rows, row)
	}
	writeJSON(w, http.StatusOK, FleetMetrics{Replicas: rows})
}

// relay copies a proxied response through verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}
