package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sprout/internal/boardio"
	"sprout/internal/faultinject"
	"sprout/internal/obs"
)

// specFor decodes a board document into the JobSpec the engine's Submit
// path would build, so store tests exercise the same shapes.
func specFor(t testing.TB, doc []byte, key string) JobSpec {
	t.Helper()
	dec, err := boardio.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	raw, hash := canonicalSubmission(dec, SubmitOptions{})
	return JobSpec{
		IdemKey: key,
		Hash:    hash,
		Raw:     raw,
		Doc:     dec,
		Opt:     routeOptions(dec, SubmitOptions{}),
		Timeout: time.Minute,
	}
}

// TestPersistentStoreRecovery is the basic crash round-trip: a store
// with a finished job, a running job, and a queued job is reopened, and
// recovery serves the finished result while re-queueing the other two
// in acceptance order.
func TestPersistentStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}

	ja, _, err := st.Create(specFor(t, doc, "a"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	jb, _, err := st.Create(specFor(t, doc, "b"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	jc, _, err := st.Create(specFor(t, doc, "c"), time.Now())
	if err != nil {
		t.Fatal(err)
	}

	st.SetRunning(ja, obs.New(), time.Now())
	if !st.Finish(ja, &obs.RunReport{Tool: "persist-test"}, nil, time.Now(), nil) {
		t.Fatal("finish was not the terminal transition")
	}
	st.SetRunning(jb, obs.New(), time.Now()) // running at "crash" time
	_ = jc                                   // still queued
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()

	// The finished job kept its terminal state and its report.
	got := st2.Get(ja.ID())
	if got == nil {
		t.Fatalf("finished job %s lost across restart", ja.ID())
	}
	if s := st2.Status(got); s.State != StateDone {
		t.Fatalf("finished job state = %s, want done", s.State)
	}
	rep, _ := st2.Result(got)
	if rep == nil || rep.Tool != "persist-test" {
		t.Fatalf("finished job report = %+v, want the persisted one", rep)
	}

	// The running and queued jobs came back queued, in acceptance order.
	rec := st2.Recovered()
	if len(rec) != 2 {
		t.Fatalf("recovered %d jobs, want 2", len(rec))
	}
	if rec[0].ID() != jb.ID() || rec[1].ID() != jc.ID() {
		t.Fatalf("recovered order = [%s %s], want [%s %s]", rec[0].ID(), rec[1].ID(), jb.ID(), jc.ID())
	}
	for _, j := range rec {
		if s := st2.Status(j); s.State != StateQueued {
			t.Fatalf("recovered job %s state = %s, want queued", j.ID(), s.State)
		}
		if j.doc == nil {
			t.Fatalf("recovered job %s has no decoded document to re-run", j.ID())
		}
	}
}

// TestPersistentStoreDedupeSurvivesRestart: idempotency keys replayed
// from the log keep deduping after a restart.
func TestPersistentStoreDedupeSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j1, _, err := st.Create(specFor(t, doc, "dup"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	j2, dedupe, err := st2.Create(specFor(t, doc, "dup"), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if dedupe != DedupeKey || j2.ID() != j1.ID() {
		t.Fatalf("post-restart create = (%s, %v), want key-dedupe onto %s", j2.ID(), dedupe, j1.ID())
	}
}

// TestWALTornTailTruncated appends garbage to a live WAL and asserts
// the next open truncates it, counts it, and recovers every intact
// record — corruption is a logged event, never a fatal one.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"t1", "t2", "t3"} {
		if _, _, err := st.Create(specFor(t, doc, key), time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without the closing compaction, leaving the accepts in the
	// WAL, then damage the tail the way a torn write would.
	st.Kill()
	st.Close()
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tr := obs.New()
	st2, err := OpenStore(dir, StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatalf("open over torn tail failed: %v (must truncate, not fail)", err)
	}
	defer st2.Close()
	if got := len(st2.Recovered()); got != 3 {
		t.Fatalf("recovered %d jobs, want all 3 intact ones", got)
	}
	counters, _ := tr.MetricsSnapshot()
	if counters["wal.truncated_tail"] != 1 {
		t.Fatalf("wal.truncated_tail = %d, want 1", counters["wal.truncated_tail"])
	}
	if counters["wal.recovered_jobs"] != 3 {
		t.Fatalf("wal.recovered_jobs = %d, want 3", counters["wal.recovered_jobs"])
	}
}

// TestWALCorruptFaultSite arms the corrupt-tail fault: the store reports
// the accept durable but tears the record on disk. Recovery must
// truncate the tear and carry on with the intact prefix.
func TestWALCorruptFaultSite(t *testing.T) {
	faultinject.Reset()
	defer faultinject.Reset()
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	st, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Tear the third accept record (appends 1 and 2 are the first jobs).
	faultinject.Arm(faultinject.SiteWALCorrupt, 3, func() error { return os.ErrInvalid })
	for _, key := range []string{"c1", "c2", "c3"} {
		if _, _, err := st.Create(specFor(t, doc, key), time.Now()); err != nil {
			t.Fatalf("create %s: %v (a torn write reports success)", key, err)
		}
	}
	st.Close()
	faultinject.Reset()

	tr := obs.New()
	st2, err := OpenStore(dir, StoreOptions{Tracer: tr})
	if err != nil {
		t.Fatalf("open over injected tear failed: %v", err)
	}
	defer st2.Close()
	if got := len(st2.Recovered()); got != 2 {
		t.Fatalf("recovered %d jobs, want the 2 before the tear", got)
	}
	counters, _ := tr.MetricsSnapshot()
	if counters["wal.truncated_tail"] != 1 {
		t.Fatalf("wal.truncated_tail = %d, want 1", counters["wal.truncated_tail"])
	}
}

// TestWALWriteFaultRejectsSubmission: a disk fault on the accept path
// must reject the submission (no durability, no 202) and unwind the
// in-memory registration so a retry can land cleanly.
func TestWALWriteFaultRejectsSubmission(t *testing.T) {
	for _, site := range []string{faultinject.SiteWALWrite, faultinject.SiteWALSync} {
		t.Run(site, func(t *testing.T) {
			faultinject.Reset()
			defer faultinject.Reset()
			dir := t.TempDir()
			doc := encodeBoardDoc(t)
			st, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			faultinject.Arm(site, 0, func() error { return os.ErrClosed })
			j, _, err := st.Create(specFor(t, doc, "disk-fault"), time.Now())
			if err == nil {
				t.Fatalf("create succeeded through a %s fault; job %v", site, j.ID())
			}
			faultinject.Disarm(site)
			if st.Get("job-1") != nil {
				t.Fatal("failed accept left a registered job behind")
			}
			// The retry lands and reuses the sequence cleanly.
			j2, dedupe, err := st.Create(specFor(t, doc, "disk-fault"), time.Now())
			if err != nil || dedupe != DedupeNone {
				t.Fatalf("retry after disk fault = (%v, %v), want a fresh accept", err, dedupe)
			}
			if s := st.Status(j2); s.State != StateQueued {
				t.Fatalf("retried job state = %s, want queued", s.State)
			}
		})
	}
}

// TestSnapshotCompactionBoundsWAL: the WAL folds into the snapshot every
// SnapshotEvery appends, so the log stays short no matter how many jobs
// flow through.
func TestSnapshotCompactionBoundsWAL(t *testing.T) {
	dir := t.TempDir()
	doc := encodeBoardDoc(t)
	tr := obs.New()
	st, err := OpenStore(dir, StoreOptions{SnapshotEvery: 4, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		j, _, err := st.Create(specFor(t, doc, fmt.Sprintf("snap-%d", i)), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		st.SetRunning(j, obs.New(), time.Now())
		st.Finish(j, &obs.RunReport{Tool: "compact"}, nil, time.Now(), nil)
	}
	counters, _ := tr.MetricsSnapshot()
	// One compaction at open plus at least one triggered by the append
	// countdown (6 jobs x 3 records > 4).
	if counters["wal.compactions"] < 2 {
		t.Fatalf("wal.compactions = %d, want >= 2", counters["wal.compactions"])
	}
	st.Close()

	// Everything survives the compacted form.
	st2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if len(st2.Recovered()) != 0 {
		t.Fatalf("recovered %d jobs, want 0 (all terminal)", len(st2.Recovered()))
	}
	for i := 1; i <= 6; i++ {
		j := st2.Get(st2.jobID(i))
		if j == nil {
			t.Fatalf("job %d lost across compaction", i)
		}
		if rep, _ := st2.Result(j); rep == nil || rep.Tool != "compact" {
			t.Fatalf("job %d report lost across compaction", i)
		}
	}
}

// FuzzWALDecode hammers the frame decoder with arbitrary bytes: it must
// never panic, the valid offset must stay in bounds, and every record it
// does return must re-encode into a frame the decoder accepts again.
func FuzzWALDecode(f *testing.F) {
	rec, err := encodeWALRecord(&walRecord{T: walAccept, ID: "job-1", Key: "k", Board: "b"})
	if err != nil {
		f.Fatal(err)
	}
	fin, err := encodeWALRecord(&walRecord{T: walFinish, ID: "job-1", Err: "boom", Kind: KindInternal})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(append(append([]byte{}, rec...), fin...))
	f.Add(append(append([]byte{}, rec...), fin[:len(fin)/2]...)) // torn tail
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1, 2, 3}) // implausible length
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, valid := decodeWAL(data)
		if valid < 0 || valid > len(data) {
			t.Fatalf("valid offset %d out of bounds [0,%d]", valid, len(data))
		}
		// The valid prefix must re-decode to exactly the same records —
		// truncation at the reported offset loses nothing intact.
		again, validAgain := decodeWAL(data[:valid])
		if len(again) != len(recs) || validAgain != valid {
			t.Fatalf("re-decode of valid prefix: %d records/%d bytes, want %d/%d",
				len(again), validAgain, len(recs), valid)
		}
		for _, r := range recs {
			buf, err := encodeWALRecord(r)
			if err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
			rt, n := decodeWAL(buf)
			if len(rt) != 1 || n != len(buf) {
				t.Fatalf("re-encoded record does not round-trip: %d records, %d/%d bytes", len(rt), n, len(buf))
			}
		}
	})
}

// TestRecoverAcceptWithRetiredExploreSeq replays an accept record as
// replicas wrote it while sproutd still offered a sequential explorer:
// it carries "explore_seq":true. decodeWAL ignores the unknown field, so
// the recovered job sweeps on the one explorer and finishes with the same
// exploration summary as a fresh submission of the same document.
func TestRecoverAcceptWithRetiredExploreSeq(t *testing.T) {
	dir := t.TempDir()
	doc := exploreBoardDoc(t)
	dec, err := boardio.Decode(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	raw, hash := canonicalSubmission(dec, SubmitOptions{Explore: true})
	payload, err := json.Marshal(&walRecord{
		T: walAccept, ID: "job-1", TS: time.Now(), Key: "old-replica", Hash: hash,
		Board: dec.Board.Name, Doc: raw, TimeoutNS: int64(time.Minute), Explore: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(payload, &fields); err != nil {
		t.Fatal(err)
	}
	fields["explore_seq"] = json.RawMessage("true")
	if payload, err = json.Marshal(fields); err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, walHeaderSize, walHeaderSize+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(filepath.Join(dir, walFileName), append(frame, payload...), 0o644); err != nil {
		t.Fatal(err)
	}

	ps, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ps.Recovered()); got != 1 {
		t.Fatalf("recovered %d jobs, want 1", got)
	}
	eng := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute, Store: ps})
	eng.Start()
	waitFor(t, "recovered sweep to finish", func() bool {
		st, ok := eng.Job("job-1")
		return ok && st.State.Terminal()
	})
	recovered, _ := eng.Job("job-1")
	if err := eng.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if recovered.State != StateDone || recovered.Exploration == nil {
		t.Fatalf("recovered job = %s (%s), want a done sweep", recovered.State, recovered.Error)
	}

	fresh := New(Config{Workers: 1, QueueDepth: 4, JobTimeout: time.Minute})
	fresh.Start()
	id := submitExplore(t, fresh, doc, "fresh")
	waitFor(t, "fresh sweep to finish", func() bool {
		st, ok := fresh.Job(id)
		return ok && st.State.Terminal()
	})
	baseline, _ := fresh.Job(id)
	if err := fresh.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if baseline.State != StateDone || baseline.Exploration == nil {
		t.Fatalf("fresh sweep = %s (%s)", baseline.State, baseline.Error)
	}
	if !reflect.DeepEqual(recovered.Exploration, baseline.Exploration) {
		t.Fatalf("recovered summary %+v != fresh %+v", *recovered.Exploration, *baseline.Exploration)
	}
}
