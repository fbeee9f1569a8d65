package server

import (
	"fmt"
	"testing"
	"time"

	"sprout/internal/obs"
)

// BenchmarkStoreAccept measures the accept-path latency of each store:
// the in-memory baseline, the WAL with fsync-on-accept (the durability
// contract sproutd ships with), and the WAL without fsync (the -no-fsync
// trade). The fsync/nosync gap is the price of crash safety per job.
func BenchmarkStoreAccept(b *testing.B) {
	doc := encodeBoardDoc(b)
	spec := specFor(b, doc, "")

	bench := func(b *testing.B, open func(b *testing.B) *Store) {
		st := open(b)
		defer st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := spec
			s.IdemKey = fmt.Sprintf("bench-%d", i) // distinct keys: no dedupe short-circuit
			j, dedupe, err := st.Create(s, time.Now())
			if err != nil {
				b.Fatal(err)
			}
			if dedupe != DedupeNone {
				b.Fatal("benchmark submission deduped; keys must be unique")
			}
			st.SetRunning(j, nil, time.Now())
			st.Finish(j, &obs.RunReport{}, nil, time.Now(), nil)
		}
	}

	b.Run("mem", func(b *testing.B) {
		bench(b, func(b *testing.B) *Store { return newStore(StoreOptions{}) })
	})
	b.Run("wal-fsync", func(b *testing.B) {
		bench(b, func(b *testing.B) *Store {
			st, err := OpenStore(b.TempDir(), StoreOptions{})
			if err != nil {
				b.Fatal(err)
			}
			return st
		})
	})
	b.Run("wal-nosync", func(b *testing.B) {
		bench(b, func(b *testing.B) *Store {
			st, err := OpenStore(b.TempDir(), StoreOptions{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			return st
		})
	})
}

// BenchmarkWALRecovery measures reopening a store that holds a 256-job
// accepted-but-unfinished backlog — the restart cost after a crash under
// load. The first iteration replays the raw WAL; later ones load the
// snapshot that open folds it into, which is the steady-state restart.
func BenchmarkWALRecovery(b *testing.B) {
	doc := encodeBoardDoc(b)
	dir := b.TempDir()
	st, err := OpenStore(dir, StoreOptions{NoSync: true, SnapshotEvery: 1 << 30})
	if err != nil {
		b.Fatal(err)
	}
	const backlog = 256
	for i := 0; i < backlog; i++ {
		if _, _, err := st.Create(specFor(b, doc, fmt.Sprintf("rec-%d", i)), time.Now()); err != nil {
			b.Fatal(err)
		}
	}
	st.Kill()
	st.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st2, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if got := len(st2.Recovered()); got != backlog {
			b.Fatalf("recovered %d, want %d", got, backlog)
		}
		b.StopTimer()
		st2.Close()
		b.StartTimer()
	}
}
