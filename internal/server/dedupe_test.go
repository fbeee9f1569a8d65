package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"sprout"
	"sprout/internal/boardio"
	"sprout/internal/obs"
)

// reencodeDoc rewrites a board document through a generic map: the JSON
// keys come back alphabetized and re-indented, so the bytes differ while
// the parsed document — and therefore the canonical hash — is identical.
func reencodeDoc(t *testing.T, doc []byte) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(m, "", "    ")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out, doc) {
		t.Fatal("re-encoded document is byte-identical; the test needs a different encoding")
	}
	return out
}

// TestContentDedupeSingleflight: byte-different but canonically
// equivalent keyless submissions racing under concurrent load must
// collapse onto one computation, with every submitter polling the same
// job to the same successful result.
func TestContentDedupeSingleflight(t *testing.T) {
	doc := encodeBoardDoc(t)
	alt := reencodeDoc(t, doc)

	tr := obs.New()
	eng := New(Config{Workers: 2, QueueDepth: 16, Tracer: tr})
	var calls atomic.Int64
	release := make(chan struct{})
	eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
		calls.Add(1)
		<-release
		return &sprout.BoardResult{Report: &obs.RunReport{Tool: "singleflight"}}, nil
	}
	eng.Start()
	defer eng.Shutdown(context.Background())
	ts := httptest.NewServer(eng.Handler())
	defer ts.Close()

	// First submission lands and starts computing; the gate holds it
	// running while the equivalent copies race in.
	resp, first, err := postJob(ts.URL, doc, "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", resp.StatusCode)
	}
	waitFor(t, "first job to start", func() bool { return calls.Load() == 1 })

	const racers = 6
	var wg sync.WaitGroup
	codes := make([]int, racers)
	statuses := make([]Status, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := doc
			if i%2 == 1 {
				body = alt // byte-different, canonically equivalent
			}
			var resp *http.Response
			resp, statuses[i], errs[i] = postJob(ts.URL, body, "")
			if resp != nil {
				codes[i] = resp.StatusCode
			}
		}(i)
	}
	wg.Wait()
	close(release)

	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if codes[i] != http.StatusOK {
			t.Fatalf("racer %d = %d, want 200 (answered from the existing job)", i, codes[i])
		}
		if statuses[i].ID != first.ID {
			t.Fatalf("racer %d landed on job %s, want singleflight onto %s", i, statuses[i].ID, first.ID)
		}
		if !statuses[i].Deduped {
			t.Fatalf("racer %d status not marked deduped", i)
		}
	}
	// One computation, every submitter gets the same successful result.
	waitTerminal(t, ts.URL, first.ID)
	var rep obs.RunReport
	if code := callJSON(t, http.MethodGet, ts.URL+"/v1/jobs/"+first.ID+"/result", &rep); code != http.StatusOK || rep.Tool != "singleflight" {
		t.Fatalf("result = %d %+v, want 200 with the shared report", code, rep)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("route ran %d times, want exactly 1", got)
	}
	counters, _ := tr.MetricsSnapshot()
	if counters["dedupe.hits"] != racers {
		t.Fatalf("dedupe.hits = %d, want %d", counters["dedupe.hits"], racers)
	}
}

// TestContentDedupePolicy pins the dedupe boundaries: explicit fresh
// idempotency keys force distinct runs even for identical content, and
// a failed job never absorbs an equivalent resubmission.
func TestContentDedupePolicy(t *testing.T) {
	doc := encodeBoardDoc(t)

	t.Run("fresh keys force distinct runs", func(t *testing.T) {
		eng := New(Config{Workers: 1, QueueDepth: 16, Tracer: obs.New()})
		var calls atomic.Int64
		eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
			calls.Add(1)
			return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
		}
		eng.Start()
		defer eng.Shutdown(context.Background())
		ts := httptest.NewServer(eng.Handler())
		defer ts.Close()
		_, a, err := postJob(ts.URL, doc, "key-a")
		if err != nil {
			t.Fatal(err)
		}
		_, b, err := postJob(ts.URL, doc, "key-b")
		if err != nil {
			t.Fatal(err)
		}
		if a.ID == "" || b.ID == "" || a.ID == b.ID {
			t.Fatalf("distinct keys collapsed onto one job %s", a.ID)
		}
	})

	t.Run("failed jobs are not absorbed", func(t *testing.T) {
		eng := New(Config{Workers: 1, QueueDepth: 16, Tracer: obs.New()})
		var calls atomic.Int64
		eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
			if calls.Add(1) == 1 {
				return nil, errors.New("transient board damage")
			}
			return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
		}
		eng.Start()
		defer eng.Shutdown(context.Background())
		ts := httptest.NewServer(eng.Handler())
		defer ts.Close()
		_, a, err := postJob(ts.URL, doc, "")
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "first attempt to fail", func() bool {
			st, _ := eng.Job(a.ID)
			return st.State == StateFailed
		})
		resp, b, err := postJob(ts.URL, doc, "")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusAccepted || b.ID == a.ID {
			t.Fatalf("equivalent resubmission = %d as %s, want a fresh 202 (not deduped onto failed %s)", resp.StatusCode, b.ID, a.ID)
		}
		if st := waitTerminal(t, ts.URL, b.ID); st.State != StateDone {
			t.Fatalf("fresh attempt = %s (%s), want done", st.State, st.Error)
		}
	})

	t.Run("option flags change the hash", func(t *testing.T) {
		eng := New(Config{Workers: 1, QueueDepth: 16, Tracer: obs.New()})
		eng.route = func(ctx context.Context, dec *boardio.Decoded, opt sprout.RouteOptions) (*sprout.BoardResult, error) {
			return &sprout.BoardResult{Report: &obs.RunReport{}}, nil
		}
		eng.Start()
		defer eng.Shutdown(context.Background())
		ts := httptest.NewServer(eng.Handler())
		defer ts.Close()
		post := func(query string) Status {
			t.Helper()
			resp, err := http.Post(ts.URL+"/v1/jobs"+query, "application/json", bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var st Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			return st
		}
		plain := post("")
		manual := post("?manual=1")
		if plain.ID == manual.ID {
			t.Fatal("manual=1 deduped onto the plain run; the flag changes the computation")
		}
		// A knob that does not change the result (timeout) still dedupes.
		timeout := post("?timeout=90s")
		if timeout.ID != plain.ID {
			t.Fatalf("timeout-only resubmission = %s, want dedupe onto %s", timeout.ID, plain.ID)
		}
	})
}
