package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestUnarmedCheckIsNil(t *testing.T) {
	Reset()
	if err := Check(SiteRefine); err != nil {
		t.Fatalf("unarmed check: %v", err)
	}
}

func TestFiresAtChosenCallCount(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	Arm(SiteCG, 3, func() error { return boom })
	for call := 1; call <= 5; call++ {
		err := Check(SiteCG)
		if call == 3 && !errors.Is(err, boom) {
			t.Fatalf("call %d: want boom, got %v", call, err)
		}
		if call != 3 && err != nil {
			t.Fatalf("call %d: want nil, got %v", call, err)
		}
	}
	if got := Calls(SiteCG); got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
}

func TestFiresEveryCallWhenAtZero(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	Arm(SiteCG, 0, func() error { return boom })
	for call := 0; call < 3; call++ {
		if err := Check(SiteCG); !errors.Is(err, boom) {
			t.Fatalf("call %d: want boom, got %v", call, err)
		}
	}
}

func TestNilFireContinues(t *testing.T) {
	Reset()
	defer Reset()
	fired := false
	Arm(SiteCG, 1, func() error { fired = true; return nil })
	if err := Check(SiteCG); err != nil {
		t.Fatalf("nil-returning fire must continue, got %v", err)
	}
	if !fired {
		t.Fatal("fire did not run")
	}
}

func TestDisarm(t *testing.T) {
	Reset()
	defer Reset()
	Arm(SiteCG, 0, func() error { return errors.New("boom") })
	Disarm(SiteCG)
	if err := Check(SiteCG); err != nil {
		t.Fatalf("disarmed site fired: %v", err)
	}
}

func TestConcurrentChecks(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	Arm(SiteCG, 50, func() error { return boom })
	var wg sync.WaitGroup
	var mu sync.Mutex
	hits := 0
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if Check(SiteCG) != nil {
					mu.Lock()
					hits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if hits != 1 {
		t.Fatalf("hook fired %d times, want exactly once", hits)
	}
	if got := Calls(SiteCG); got != 200 {
		t.Fatalf("Calls = %d, want 200", got)
	}
}

func TestProbabilisticIsDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	pattern := func(seed int64) []bool {
		ArmProbabilistic(SiteCG, seed, 0.3, func() error { return boom })
		var got []bool
		for i := 0; i < 200; i++ {
			got = append(got, Check(SiteCG) != nil)
		}
		return got
	}
	a, b := pattern(7), pattern(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	fired := 0
	for _, hit := range a {
		if hit {
			fired++
		}
	}
	// 200 draws at p=0.3: the pattern must be intermittent, neither
	// always-on nor never-firing.
	if fired == 0 || fired == 200 {
		t.Fatalf("fired %d/200 times, want intermittent", fired)
	}
	if got := Fired(SiteCG); got != fired {
		t.Fatalf("Fired = %d, want %d", got, fired)
	}
	if got := Calls(SiteCG); got != 200 {
		t.Fatalf("Calls = %d, want 200", got)
	}
}

func TestProbabilisticExtremes(t *testing.T) {
	Reset()
	defer Reset()
	boom := errors.New("boom")
	ArmProbabilistic(SiteGrow, 1, 0, func() error { return boom })
	for i := 0; i < 50; i++ {
		if Check(SiteGrow) != nil {
			t.Fatal("p=0 must never fire")
		}
	}
	ArmProbabilistic(SiteGrow, 1, 2, func() error { return boom }) // clamped to 1
	for i := 0; i < 50; i++ {
		if Check(SiteGrow) == nil {
			t.Fatal("p>=1 must always fire")
		}
	}
}

func TestLatencyInjection(t *testing.T) {
	Reset()
	defer Reset()
	const d = 5 * time.Millisecond
	ArmLatency(SiteRefine, 3, 1, d)
	start := time.Now()
	if err := Check(SiteRefine); err != nil {
		t.Fatalf("latency hook must not inject an error: %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("Check returned after %v, want >= %v of injected latency", elapsed, d)
	}
	if Fired(SiteRefine) != 1 {
		t.Fatalf("Fired = %d, want 1", Fired(SiteRefine))
	}
}

func TestLatencyProbabilisticIsDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	run := func() int {
		ArmLatency(SiteRefine, 11, 0.5, 0)
		for i := 0; i < 100; i++ {
			if err := Check(SiteRefine); err != nil {
				t.Fatalf("latency hook returned error: %v", err)
			}
		}
		return Fired(SiteRefine)
	}
	if a, b := run(), run(); a != b || a == 0 || a == 100 {
		t.Fatalf("fired %d then %d of 100, want equal and intermittent", a, b)
	}
}

func TestRegistry(t *testing.T) {
	// Sorted: extract.extract, route.grow, route.refine, the server.*
	// durability sites (checkpoint write, directory fsync, three WAL
	// disk-fault sites), sparse.cg, then the checkpoint decode site.
	want := []string{
		SiteExtract, SiteGrow, SiteRefine,
		SiteCkptWrite, SiteDirSync,
		SiteWALCorrupt, SiteWALSync, SiteWALWrite,
		SiteCG, SiteCkptDecode,
	}
	got := Sites()
	if len(got) != len(want) {
		t.Fatalf("Sites() = %v, want %v", got, want)
	}
	for i, s := range want {
		if got[i] != s {
			t.Fatalf("Sites()[%d] = %q, want %q", i, got[i], s)
		}
		if !IsSite(s) {
			t.Fatalf("IsSite(%q) = false", s)
		}
		if registry[s] == "" {
			t.Fatalf("site %q has an empty description: every registered site needs one", s)
		}
	}
	if IsSite("sparse.gc") {
		t.Fatal("IsSite accepted a typo'd site")
	}
}

func TestArmRejectsUnregisteredSite(t *testing.T) {
	Reset()
	defer Reset()
	defer func() {
		if recover() == nil {
			t.Fatal("Arm on an unregistered site must panic")
		}
	}()
	Arm("sparse.gc", 1, nil)
}
