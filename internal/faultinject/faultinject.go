// Package faultinject provides deterministic fault-injection hooks for
// testing SPROUT's failure paths. Production code places named check
// points (Check) at interesting boundaries — the CG solver entry, the
// SmartGrow loop, the refinement loop — and tests arm those sites to
// fire a chosen action at a chosen call count: force a solver breakdown,
// return ErrNoConvergence, or cancel a context mid-pipeline.
//
// Three arming modes cover the failure shapes the tests need:
//
//   - Arm fires at an exact call count (or every call) — deterministic
//     hard faults.
//   - ArmProbabilistic fires each call with probability p drawn from a
//     seeded generator — intermittent faults that are still reproducible
//     run to run (the chaos/soak tests depend on this).
//   - ArmLatency injects a delay (optionally probabilistic) instead of
//     an error — slow-path faults that exercise deadlines and drains.
//
// The package is disabled by default and adds a single atomic load to
// the hot path when no hook is armed, so check points are safe to leave
// in performance-sensitive loops.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known injection sites. Constants live here (not in the packages
// that check them) so tests can arm sites without import cycles.
const (
	// SiteCG fires once per CG invocation, before the first iteration.
	SiteCG = "sparse.cg"
	// SiteGrow fires once per SmartGrow loop iteration of the pipeline.
	SiteGrow = "route.grow"
	// SiteRefine fires once per SmartRefine iteration of the pipeline.
	SiteRefine = "route.refine"
	// SiteExtract fires once per impedance extraction, before the fine
	// re-tiling.
	SiteExtract = "extract.extract"
	// SiteWALWrite fires once per sproutd WAL record write, before the
	// bytes reach the file; a non-nil fire fails the append (disk fault).
	SiteWALWrite = "server.wal.write"
	// SiteWALSync fires once per sproutd WAL fsync, before the flush; a
	// non-nil fire fails the durability barrier (disk fault).
	SiteWALSync = "server.wal.sync"
	// SiteWALCorrupt fires once per sproutd WAL record write; a non-nil
	// fire makes the append write a deliberately torn record while
	// reporting success — the crash-mid-write shape recovery must
	// truncate, never trip over.
	SiteWALCorrupt = "server.wal.corrupt"
	// SiteDirSync fires once per data-directory fsync (after the snapshot
	// rename); a non-nil fire fails the directory durability barrier.
	SiteDirSync = "server.dir.sync"
	// SiteCkptWrite fires once per exploration-checkpoint persist, before
	// the WAL append; a non-nil fire fails the checkpoint write.
	SiteCkptWrite = "server.ckpt.write"
	// SiteCkptDecode fires once per exploration-checkpoint decode, before
	// the frame is parsed; a non-nil fire fails the decode (the recovered
	// job then restarts its sweep from scratch).
	SiteCkptDecode = "sprout.ckpt.decode"
)

// registry is the canonical site table: every check point the production
// code contains, with a one-line description of where it fires. It is the
// single source of truth shared by the runtime (Arm rejects unknown
// sites, so a typo'd hook name fails loudly instead of silently never
// firing) and by the sproutlint faultpoint analyzer, which flags string
// literals passed to this package that are not in the table.
var registry = map[string]string{
	SiteCG:         "sparse: CG solver entry, before the first iteration",
	SiteGrow:       "route: one SmartGrow iteration of the pipeline",
	SiteRefine:     "route: one SmartRefine iteration of the pipeline",
	SiteExtract:    "extract: impedance extraction entry, before re-tiling",
	SiteWALWrite:   "server: WAL record write, before bytes reach the file",
	SiteWALSync:    "server: WAL fsync, before the durability barrier flush",
	SiteWALCorrupt: "server: WAL append tears the record while reporting success",
	SiteDirSync:    "server: data-directory fsync after the snapshot rename",
	SiteCkptWrite:  "server: exploration-checkpoint persist, before the WAL append",
	SiteCkptDecode: "sprout: exploration-checkpoint decode, before parsing the frame",
}

// Sites returns the canonical site names in sorted order.
func Sites() []string {
	out := make([]string, 0, len(registry))
	for s := range registry {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// IsSite reports whether name is a registered injection site.
func IsSite(name string) bool {
	_, ok := registry[name]
	return ok
}

// hook is one armed injection site.
type hook struct {
	// at is the 1-indexed call count the hook fires on; 0 fires on every
	// call. Ignored when rng is set (probabilistic mode).
	at int
	// rng drives probabilistic triggering; nil means count-based. The
	// generator is seeded at arm time and only ever drawn under the
	// package mutex, so a given seed replays the same fire pattern.
	rng *rand.Rand
	// prob is the per-call trigger probability in probabilistic mode.
	prob float64
	// delay is slept (outside the lock) when the hook triggers, before
	// fire runs — latency injection.
	delay time.Duration
	// fire runs when the hook triggers. A non-nil return is handed to the
	// caller of Check as the injected fault; a nil return lets execution
	// continue (useful for side effects such as cancelling a context).
	fire func() error
	// calls counts Check invocations against this site; fired counts how
	// many of them triggered.
	calls int
	fired int
}

var (
	// armed is the fast-path gate: zero means every Check is a no-op
	// beyond one atomic load.
	armed atomic.Int32
	mu    sync.Mutex
	hooks map[string]*hook
)

// Arm installs a hook at the site. at is the 1-indexed call count on
// which fire runs (0 = every call). Re-arming a site resets its counter.
// Arming a site that is not in the canonical registry panics: an unknown
// name is a test typo whose hook would otherwise silently never fire.
func Arm(site string, at int, fire func() error) {
	install(site, &hook{at: at, fire: fire})
}

// ArmProbabilistic installs a hook that fires on each Check with
// probability p, drawn from a generator seeded with seed — intermittent
// faults whose exact fire pattern is reproducible run to run. p is
// clamped to [0,1]. Re-arming resets the counter and the generator, so
// the same seed replays the same decisions.
func ArmProbabilistic(site string, seed int64, p float64, fire func() error) {
	install(site, &hook{rng: rand.New(rand.NewSource(seed)), prob: clamp01(p), fire: fire})
}

// ArmLatency installs a hook that, with probability p per Check (drawn
// from a generator seeded with seed; p is clamped to [0,1], and p >= 1
// delays every call), sleeps d and then lets execution continue. It
// injects slowness, not errors — the tool for exercising deadlines,
// admission backpressure, and shutdown drains.
func ArmLatency(site string, seed int64, p float64, d time.Duration) {
	install(site, &hook{rng: rand.New(rand.NewSource(seed)), prob: clamp01(p), delay: d})
}

func clamp01(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	}
	return p
}

// install registers the hook under the canonical-registry contract shared
// by every arming mode.
func install(site string, h *hook) {
	if !IsSite(site) {
		panic(fmt.Sprintf("faultinject: Arm(%q): not a registered site (known: %v)", site, Sites()))
	}
	mu.Lock()
	defer mu.Unlock()
	if hooks == nil {
		hooks = map[string]*hook{}
	}
	if _, exists := hooks[site]; !exists {
		armed.Add(1)
	}
	hooks[site] = h
}

// Disarm removes the hook at the site, if any.
func Disarm(site string) {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := hooks[site]; exists {
		delete(hooks, site)
		armed.Add(-1)
	}
}

// Reset removes every hook and zeroes all counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Store(0)
	hooks = nil
}

// Check is the production-side check point. It returns nil unless the
// site is armed and the armed call count is reached, in which case it
// returns whatever the hook's fire function returns. Check is safe for
// concurrent use (CG runs inside a worker pool).
func Check(site string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	h := hooks[site]
	if h == nil {
		mu.Unlock()
		return nil
	}
	h.calls++
	var trigger bool
	if h.rng != nil {
		trigger = h.rng.Float64() < h.prob
	} else {
		trigger = h.at == 0 || h.calls == h.at
	}
	if trigger {
		h.fired++
	}
	fire := h.fire
	delay := h.delay
	mu.Unlock()
	if !trigger {
		return nil
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	if fire == nil {
		return nil
	}
	return fire()
}

// Calls reports how many times Check has run against an armed site since
// it was armed. Unarmed sites report zero.
func Calls(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if h := hooks[site]; h != nil {
		return h.calls
	}
	return 0
}

// Fired reports how many Check calls actually triggered the armed hook
// (delay and/or fire) since it was armed. Unarmed sites report zero.
func Fired(site string) int {
	mu.Lock()
	defer mu.Unlock()
	if h := hooks[site]; h != nil {
		return h.fired
	}
	return 0
}
