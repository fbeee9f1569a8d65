package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// newTestReplica builds an engine with an instant scripted route, named
// so its job ids reveal which replica ran a job.
func newTestReplica(t *testing.T, name string) (*Engine, *obs.Tracer) {
	t.Helper()
	tr := obs.New()
	eng := New(Config{Workers: 2, QueueDepth: 16, NodeName: name, RetryAfter: time.Second, Tracer: tr})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		return &sprout.BoardResult{Report: &obs.RunReport{Tool: name}}, nil
	}
	eng.Start()
	t.Cleanup(func() { _ = eng.Shutdown(context.Background()) })
	return eng, tr
}

// swapHandler lets a test start an httptest server before the handler
// that needs the server's own URL exists.
type swapHandler struct {
	mu sync.Mutex
	h  http.Handler
}

func (s *swapHandler) set(h http.Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.h = h
}

func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "not wired", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

func TestHashRingDeterministicAndCovering(t *testing.T) {
	nodes := []string{"http://a", "http://b", "http://c"}
	ring := newHashRing(nodes)
	owned := map[string]int{}
	for i := 0; i < 999; i++ {
		key := fmt.Sprintf("key-%d", i)
		seq := ring.sequence(key)
		if len(seq) != len(nodes) {
			t.Fatalf("sequence(%q) has %d nodes, want %d", key, len(seq), len(nodes))
		}
		owner := seq[0]
		owned[owner]++
		if again := ring.sequence(key); again[0] != owner {
			t.Fatalf("owner of %q not deterministic: %s then %s", key, owner, again[0])
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence(%q) repeats %s", key, n)
			}
			seen[n] = true
		}
	}
	for _, n := range nodes {
		// With 64 vnodes the split is within a few percent of even; 10%
		// is a loose floor that still catches a broken ring.
		if owned[n] < 100 {
			t.Fatalf("node %s owns %d/999 keys; ring badly unbalanced: %v", n, owned[n], owned)
		}
	}
}

// keysOwnedBy searches out keys whose ring owner is the given URL.
func keysOwnedBy(ring *hashRing, owner string, want int) []string {
	var keys []string
	for i := 0; len(keys) < want && i < 100000; i++ {
		k := fmt.Sprintf("owned-%s-%d", owner, i)
		if ring.sequence(k)[0] == owner {
			keys = append(keys, k)
		}
	}
	return keys
}

// shardProxyFixture stands up n replicas in proxy mode (ShardHandler),
// each knowing the others as peers.
func shardProxyFixture(t *testing.T, n int) (urls []string, engines []*Engine, tracers []*obs.Tracer, servers []*httptest.Server) {
	t.Helper()
	swaps := make([]*swapHandler, n)
	for i := 0; i < n; i++ {
		swaps[i] = &swapHandler{}
		ts := httptest.NewServer(swaps[i])
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
		servers = append(servers, ts)
	}
	for i := 0; i < n; i++ {
		eng, tr := newTestReplica(t, fmt.Sprintf("r%d", i+1))
		engines = append(engines, eng)
		tracers = append(tracers, tr)
		var peers []string
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		swaps[i].set(eng.ShardHandler(urls[i], peers, nil))
	}
	return urls, engines, tracers, servers
}

// postJob makes one submission of doc to base under the idempotency key
// ("" = none) and returns the response (body consumed) and the status
// document it carried, if any. It returns transport errors instead of
// failing the test, so load goroutines can call it. The request is
// bounded, so a proxy that never answers fails instead of hanging.
func postJob(base string, doc []byte, key string) (*http.Response, Status, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/jobs", bytes.NewReader(doc))
	if err != nil {
		return nil, Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, Status{}, err
	}
	defer resp.Body.Close()
	var st Status
	_ = json.NewDecoder(resp.Body).Decode(&st) // rejections carry an error document
	return resp, st, nil
}

// TestShardProxyRoutesToOwner: submissions posted to any replica land on
// their consistent-hash owner, and reads for the job work from every
// replica via the scatter path.
func TestShardProxyRoutesToOwner(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, _, _, _ := shardProxyFixture(t, 3)
	ring := newHashRing(urls)

	post := func(base, key string) Status {
		t.Helper()
		resp, st, err := postJob(base, doc, key)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %q = %d", key, resp.StatusCode)
		}
		return st
	}

	// All submissions go to replica 1; job-id prefixes expose who ran them.
	names := map[string]string{urls[0]: "r1", urls[1]: "r2", urls[2]: "r3"}
	spread := map[string]bool{}
	for i := 0; i < 9; i++ {
		key := fmt.Sprintf("proxy-%d", i)
		st := post(urls[0], key)
		wantOwner := names[ring.sequence(key)[0]]
		if !strings.HasPrefix(st.ID, wantOwner+"-") {
			t.Fatalf("key %q ran as %s, want owner %s", key, st.ID, wantOwner)
		}
		spread[wantOwner] = true

		// The job is readable from a replica that does not hold it.
		other := urls[2]
		if ring.sequence(key)[0] == other {
			other = urls[1]
		}
		resp, err := http.Get(other + "/v1/jobs/" + st.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cross-replica status for %s = %d, want 200", st.ID, resp.StatusCode)
		}
	}
	if len(spread) < 2 {
		t.Fatalf("9 keys all landed on one replica (%v); ring not spreading", spread)
	}

	// A byte-identical keyless retry routes to the same replica and
	// content-dedupes there: one job cluster-wide.
	a := post(urls[0], "")
	b := post(urls[1], "")
	if a.ID != b.ID {
		t.Fatalf("keyless equivalent submissions landed on %s and %s, want one job", a.ID, b.ID)
	}

	// Unknown ids 404 from every replica after the scatter.
	resp, err := http.Get(urls[1] + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", resp.StatusCode)
	}
}

// TestShardProxyFailover: a submission owned by a dead peer must be
// served by the next replica on the ring instead of erroring.
func TestShardProxyFailover(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, _, tracers, servers := shardProxyFixture(t, 3)
	ring := newHashRing(urls)
	servers[1].Close() // r2 is gone

	keys := keysOwnedBy(ring, urls[1], 3)
	for _, key := range keys {
		resp, st, err := postJob(urls[0], doc, key)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %q through dead owner = %d", key, resp.StatusCode)
		}
		if strings.HasPrefix(st.ID, "r2-") {
			t.Fatalf("key %q reportedly ran on the dead replica as %s", key, st.ID)
		}
	}
	counters, _ := tracers[0].MetricsSnapshot()
	if counters["shard.failovers"] < int64(len(keys)) {
		t.Fatalf("shard.failovers = %d, want >= %d", counters["shard.failovers"], len(keys))
	}
}

// TestShardProxySkipsDrainingOwner: a draining replica answers
// submissions 503 without storing anything, so the proxy must move on to
// the next replica in ring order and count the hop — both when the
// draining owner is a peer and when it is the entry replica itself.
func TestShardProxySkipsDrainingOwner(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, engines, tracers, _ := shardProxyFixture(t, 3)
	ring := newHashRing(urls)
	names := map[string]string{urls[0]: "r1", urls[1]: "r2", urls[2]: "r3"}
	if err := engines[1].Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	keys := keysOwnedBy(ring, urls[1], 4)
	for i, key := range keys {
		entry := i % 2 // r1 proxies to the draining r2; r2 skips itself
		before, _ := tracers[entry].MetricsSnapshot()
		resp, st, err := postJob(urls[entry], doc, key)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("key %q owned by the draining r2, posted to %s = %d, want 202 from the next ring node",
				key, names[urls[entry]], resp.StatusCode)
		}
		if want := names[ring.sequence(key)[1]]; !strings.HasPrefix(st.ID, want+"-") {
			t.Fatalf("key %q ran as %s, want the next ring node %s", key, st.ID, want)
		}
		after, _ := tracers[entry].MetricsSnapshot()
		if after["shard.failovers"] <= before["shard.failovers"] {
			t.Fatalf("shard.failovers on %s stayed at %d across a draining-owner hop",
				names[urls[entry]], after["shard.failovers"])
		}
	}
}

// TestShardProxyAllDraining: with every replica draining the proxy runs
// out of ring and answers 503 with Retry-After itself — promptly, so
// clients back off instead of hanging.
func TestShardProxyAllDraining(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, engines, _, _ := shardProxyFixture(t, 3)
	for _, eng := range engines {
		if err := eng.Shutdown(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	for _, base := range urls {
		resp, _, err := postJob(base, doc, "doomed")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("submit to a fully draining ring via %s = %d, want 503", base, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("503 from a fully draining ring via %s carries no Retry-After", base)
		}
	}
}

// TestShardProxyRelaysRejection: a malformed board is malformed on every
// replica, so the owner's 400 is relayed as-is — whether the owner is a
// peer or the entry replica — and nothing fails over.
func TestShardProxyRelaysRejection(t *testing.T) {
	urls, _, tracers, _ := shardProxyFixture(t, 3)
	ring := newHashRing(urls)
	for _, owner := range urls {
		key := keysOwnedBy(ring, owner, 1)[0]
		resp, _, err := postJob(urls[0], []byte("{not json"), key)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("malformed submit owned by %s = %d, want 400", owner, resp.StatusCode)
		}
	}
	counters, _ := tracers[0].MetricsSnapshot()
	if counters["shard.failovers"] != 0 {
		t.Fatalf("shard.failovers = %d after 400s, want 0", counters["shard.failovers"])
	}
}

// TestShardTraceGatherHungPeers: the trace gather asks every peer at
// once, so peers that never answer cost one fleet timeout in total, not
// one each.
func TestShardTraceGatherHungPeers(t *testing.T) {
	const fleetTimeout = 300 * time.Millisecond
	release := make(chan struct{})
	var peers []string
	for i := 0; i < 3; i++ {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-release:
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(ts.Close)
		peers = append(peers, ts.URL)
	}
	// Cleanups run last-in first-out: the hung handlers return before
	// their servers close.
	t.Cleanup(func() { close(release) })

	eng, _ := newTestReplica(t, "r1")
	eng.cfg.FleetTimeout = fleetTimeout
	swap := &swapHandler{}
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)
	swap.set(eng.ShardHandler(ts.URL, peers, nil))

	// Marked as forwarded, the submission runs here instead of being
	// proxied to a hung owner.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(encodeBoardDoc(t)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(forwardedByHeader, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitTerminal(t, ts.URL, st.ID)

	start := time.Now()
	tresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tresp.Body.Close()
	if took := time.Since(start); took >= 2*fleetTimeout {
		t.Fatalf("trace with %d hung peers took %v, want under %v (one fleet timeout, not one per peer)",
			len(peers), took, 2*fleetTimeout)
	}
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace = %d, want 200 from the local parts", tresp.StatusCode)
	}
}

// TestShardReadHungPeer: a status read of a job no replica holds asks
// each peer under its own fleet timeout, so a peer that never answers
// delays the 404 by one fleet timeout instead of stalling it, even when
// the proxy's HTTP client has no timeout of its own.
func TestShardReadHungPeer(t *testing.T) {
	const fleetTimeout = 300 * time.Millisecond
	release := make(chan struct{})
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(hung.Close)
	// Cleanups run last-in first-out: the hung handler returns before
	// its server closes.
	t.Cleanup(func() { close(release) })

	eng, _ := newTestReplica(t, "r1")
	eng.cfg.FleetTimeout = fleetTimeout
	swap := &swapHandler{}
	ts := httptest.NewServer(swap)
	t.Cleanup(ts.Close)
	swap.set(eng.ShardHandler(ts.URL, []string{hung.URL}, nil))

	client := &http.Client{Timeout: 10 * fleetTimeout}
	start := time.Now()
	resp, err := client.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatalf("read with a hung peer: %v", err)
	}
	resp.Body.Close()
	if took := time.Since(start); took >= 2*fleetTimeout {
		t.Fatalf("read with a hung peer took %v, want under %v (one fleet timeout)", took, 2*fleetTimeout)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("read = %d, want the local 404", resp.StatusCode)
	}
}

// TestShardMultiReplicaDrainUnderLoad is the sharded half of the chaos
// suite: concurrent clients submit through the proxies of two replicas
// while the third drains mid-load (503 + Retry-After). Every submission
// makes one attempt and must succeed — the proxies skip the draining
// replica in ring order — and every accepted job must reach a terminal
// state somewhere in the cluster.
func TestShardMultiReplicaDrainUnderLoad(t *testing.T) {
	doc := encodeBoardDoc(t)
	urls, engines, tracers, _ := shardProxyFixture(t, 3)
	// Clients post to r2 and r3, the replicas that stay up.
	submit := func(ci int, key string) (Status, error) {
		resp, st, err := postJob(urls[1+ci%2], doc, key)
		if err != nil {
			return Status{}, err
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return Status{}, fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return st, nil
	}

	var (
		mu  sync.Mutex
		ids []string
	)
	const clients, perClient = 3, 8
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				st, err := submit(ci, fmt.Sprintf("drain-%d-%d", ci, i))
				if err != nil {
					t.Errorf("submit %d-%d: %v (two replicas stayed up; no submission may fail)", ci, i, err)
					return
				}
				mu.Lock()
				ids = append(ids, st.ID)
				mu.Unlock()
			}
		}(ci)
	}
	// Drain replica 1 while the load runs.
	if err := engines[0].Shutdown(context.Background()); err != nil {
		t.Errorf("drain: %v", err)
	}
	wg.Wait()

	// After the drain, keys owned by the drained replica must still be
	// accepted (failover), and the hop counter must show it happened.
	ring := newHashRing(urls)
	for _, key := range keysOwnedBy(ring, urls[0], 3) {
		st, err := submit(0, key)
		if err != nil {
			t.Fatalf("post-drain submit %q: %v", key, err)
		}
		if strings.HasPrefix(st.ID, "r1-") {
			t.Fatalf("post-drain key %q accepted by the draining replica as %s", key, st.ID)
		}
		mu.Lock()
		ids = append(ids, st.ID)
		mu.Unlock()
	}
	counters, _ := tracers[1].MetricsSnapshot()
	if counters["shard.failovers"] < 3 {
		t.Fatalf("shard.failovers = %d, want >= 3", counters["shard.failovers"])
	}

	// Zero accepted-job loss, cluster-wide: every id resolves to a
	// terminal state through one replica's read scatter (drained
	// replicas keep serving reads).
	for _, id := range ids {
		st := waitTerminal(t, urls[1], id)
		switch st.State {
		case StateDone:
			var rep obs.RunReport
			if code := callJSON(t, http.MethodGet, urls[1]+"/v1/jobs/"+id+"/result", &rep); code != http.StatusOK || rep.Tool == "" {
				t.Fatalf("job %s done, result = %d %+v, want 200 with a report", id, code, rep)
			}
		case StateFailed:
			// Terminal failure (e.g. caught by the drain sweep) is an
			// answer; a vanished job is not.
			if st.ErrorKind != KindShutdown {
				t.Fatalf("job %s failed with kind %s: %s", id, st.ErrorKind, st.Error)
			}
		default:
			t.Fatalf("job %s ended %s: %s", id, st.State, st.Error)
		}
	}
}
