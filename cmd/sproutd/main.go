// Command sproutd is the long-running SPROUT routing service: an HTTP
// API that accepts board documents (the same JSON schema `sprout -board`
// reads), routes them on a bounded worker pool with admission control,
// and serves per-job run reports and Chrome traces.
//
//	POST /v1/jobs              submit a board (Idempotency-Key dedupes retries,
//	                           ?timeout=90s bounds the job, ?manual=1, ?skip_extract=1,
//	                           X-Sprout-Trace continues a distributed trace)
//	GET  /v1/jobs              list jobs (?state=quarantined for the parked set)
//	GET  /v1/jobs/{id}         poll status
//	POST /v1/jobs/{id}/requeue revive a quarantined job with a fresh attempt budget
//	GET  /v1/jobs/{id}/result  run report (429/503/504/500 map the typed errors)
//	GET  /v1/jobs/{id}/trace   stitched Chrome trace of the run (open in Perfetto)
//	GET  /v1/fleet/metrics     per-replica metric snapshots (scatter-gathered)
//	GET  /healthz /readyz      probes
//	GET  /metrics              Prometheus text exposition (?format=json for JSON)
//
// On SIGTERM/SIGINT the server stops admitting (readyz goes 503), drains
// in-flight jobs for -drain, cancels stragglers with a typed shutdown
// error, and exits; no accepted job is dropped without a terminal state.
//
// With -data, accepted jobs are made durable in a WAL + snapshot store:
// a SIGKILL (or power loss) loses no accepted job — the next start
// replays the log, truncates any torn tail, and re-runs everything that
// had not reached a terminal state. -no-fsync trades that guarantee for
// faster accepts.
//
// Recovery counts job starts: a job that has started -max-attempts times
// without finishing is quarantined instead of re-enqueued, so one
// poisonous board cannot crash-loop the replica forever. Exploration
// jobs additionally checkpoint their progress every -checkpoint-every
// settled orders; a re-run after a crash (or an operator requeue)
// resumes mid-sweep with identical results.
//
// With -self and -peers, the replica joins a consistent-hash shard ring:
// submissions owned by a peer are proxied there (failing over along the
// ring past peers that are down or draining), and reads for jobs this
// replica does not hold are scattered to the peers. Each replica is its
// own ring member, so its /metrics series carry replica and shard labels
// both set to -name.
//
// Usage:
//
//	sproutd -addr :8080 -workers 4 -queue 32 -drain 15s -job-timeout 2m
//	sproutd -addr :8080 -data /var/lib/sproutd -name r1 \
//	        -self http://r1:8080 -peers http://r2:8080,http://r3:8080
package main

import (
	"context"
	"errors"
	"flag"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sprout/internal/obs"
	"sprout/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent routing jobs (in-flight limit)")
	queue := flag.Int("queue", 0, "admission queue depth (0 = 4x workers); beyond it submissions get 429")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain deadline before stragglers are cancelled")
	jobTimeout := flag.Duration("job-timeout", 2*time.Minute, "default per-job deadline")
	maxJobTimeout := flag.Duration("max-job-timeout", 10*time.Minute, "cap on client-requested ?timeout=")
	retryAfter := flag.Duration("retry-after", time.Second, "Retry-After hint on 429/503 rejections")
	dataDir := flag.String("data", "", "durable store directory (WAL + snapshot); empty = in-memory, nothing survives restart")
	name := flag.String("name", "", "replica name: prefixes job ids so they are unique across a shard ring, and labels /metrics series (replica and shard)")
	noFsync := flag.Bool("no-fsync", false, "skip the fsync after each accepted job (faster accepts, jobs in the unsynced window can vanish in a crash)")
	snapshotEvery := flag.Int("snapshot-every", 0, "WAL appends between snapshot+compaction passes (0 = default)")
	maxAttempts := flag.Int("max-attempts", 0, "job starts before recovery quarantines a crash-looping job (0 = default 3, negative disables)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "settled orders between durable exploration checkpoints (0 = default 8, negative disables)")
	self := flag.String("self", "", "this replica's base URL on the shard ring (enables proxy mode with -peers)")
	peers := flag.String("peers", "", "comma-separated peer base URLs on the shard ring")
	fleetTimeout := flag.Duration("fleet-timeout", 2*time.Second, "per-peer timeout for /v1/fleet/metrics scrapes and trace-part gathers")
	verbose := flag.Bool("v", false, "verbose: log per-job detail")
	quiet := flag.Bool("q", false, "quiet: log errors only")
	flag.Parse()

	verbosity := obs.Normal
	switch {
	case *quiet:
		verbosity = obs.Quiet
	case *verbose:
		verbosity = obs.Verbose
	}
	log := obs.NewLogger(os.Stderr, verbosity)
	tracer := obs.New(obs.WithReplica(*name))

	var store *server.Store
	if *dataDir != "" {
		ps, err := server.OpenStore(*dataDir, server.StoreOptions{
			Name:          *name,
			NoSync:        *noFsync,
			SnapshotEvery: *snapshotEvery,
			MaxAttempts:   *maxAttempts,
			Tracer:        tracer,
			Log:           log,
		})
		if err != nil {
			log.Error("open store failed", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		defer func() {
			if cerr := ps.Close(); cerr != nil {
				log.Warn("store close", "err", cerr)
			}
		}()
		store = ps
		log.Info("durable store open", "dir", *dataDir, "recovered", len(ps.Recovered()), "fsync", !*noFsync)
	}

	eng := server.New(server.Config{
		Workers:         *workers,
		Store:           store,
		NodeName:        *name,
		FleetTimeout:    *fleetTimeout,
		QueueDepth:      *queue,
		JobTimeout:      *jobTimeout,
		MaxJobTimeout:   *maxJobTimeout,
		DrainTimeout:    *drain,
		RetryAfter:      *retryAfter,
		CheckpointEvery: *checkpointEvery,
		Tracer:          tracer,
		Log:             log,
	})
	eng.Start()

	handler := eng.Handler()
	if *self != "" && *peers != "" {
		peerList := strings.Split(*peers, ",")
		for i := range peerList {
			peerList[i] = strings.TrimSpace(peerList[i])
		}
		handler = eng.ShardHandler(*self, peerList, &http.Client{Timeout: 30 * time.Second})
		log.Info("shard proxy enabled", "self", *self, "peers", peerList)
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}

	// SIGTERM/SIGINT starts the graceful sequence: admission closes (and
	// /readyz flips) immediately, the pool drains under the bounded
	// deadline, and only then does the HTTP listener close — so status
	// polls keep working while the drain runs.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		log.Info("signal received, draining", "drain", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := eng.Shutdown(dctx); err != nil {
			log.Warn("drain deadline expired", "err", err)
		}
		hctx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer hcancel()
		if err := httpSrv.Shutdown(hctx); err != nil {
			log.Warn("http shutdown", "err", err)
		}
	}()

	log.Info("sproutd listening", "addr", *addr, "workers", *workers)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Error("listen failed", "err", err)
		os.Exit(1)
	}
	<-shutdownDone
	log.Info("sproutd exited cleanly")
}
