package queryd

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func admCfg(inFlight, queue int, timeoutMS int64) Config {
	cfg := DefaultConfig()
	cfg.MaxInFlight = inFlight
	cfg.MaxQueue = queue
	cfg.QueueTimeoutMS = timeoutMS
	return cfg
}

// TestAdmissionShedding drives the controller to each limit and checks
// the decision at the boundary.
func TestAdmissionShedding(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		held        int // slots acquired before the probe
		queued      int // waiters parked before the probe
		tenantQuota int
		probeTenant string
		want        error // nil = admitted immediately
	}{
		{name: "below-limit", cfg: admCfg(2, 4, 1000), held: 1, want: nil},
		{name: "at-limit-queue-empty", cfg: admCfg(2, 4, 1000), held: 2, want: ErrDeadline},
		{name: "at-limit-queue-full", cfg: admCfg(1, 0, 1000), held: 1, want: ErrShed},
		{name: "queue-partially-full", cfg: admCfg(1, 2, 1000), held: 1, queued: 1, want: ErrDeadline},
		{name: "queue-at-cap", cfg: admCfg(1, 2, 1000), held: 1, queued: 2, want: ErrShed},
		{name: "tenant-over-quota", cfg: admCfg(8, 8, 1000), held: 1, tenantQuota: 1, probeTenant: "a", want: ErrShed},
		{name: "tenant-under-quota", cfg: admCfg(8, 8, 1000), held: 1, tenantQuota: 2, probeTenant: "a", want: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.TenantMaxInFlight = tc.tenantQuota
			a := newAdmission()
			for i := 0; i < tc.held; i++ {
				if err := a.Acquire(cfg, tc.probeTenant, 0); err != nil {
					t.Fatalf("pre-acquire %d: %v", i, err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < tc.queued; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Parked waiters expire on their own deadline; the test
					// only needs them occupying queue slots.
					_ = a.Acquire(cfg, "filler", 50)
				}()
			}
			// Wait until the fillers are actually parked.
			deadline := time.Now().Add(time.Second)
			for a.Stats().Queued < tc.queued {
				if time.Now().After(deadline) {
					t.Fatalf("fillers never queued: %+v", a.Stats())
				}
				time.Sleep(time.Millisecond)
			}

			start := time.Now()
			err := a.Acquire(cfg, tc.probeTenant, 100)
			if !errors.Is(err, tc.want) {
				t.Fatalf("Acquire = %v, want %v", err, tc.want)
			}
			// A shed or expired query must return promptly — never stall
			// behind the held slots.
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("admission decision took %v", elapsed)
			}
			wg.Wait()
		})
	}
}

// TestAdmissionDeadlineNoStall parks a waiter behind a slot that never
// frees and requires an ErrDeadline within the requested deadline (plus
// slack), not a hang.
func TestAdmissionDeadlineNoStall(t *testing.T) {
	cfg := admCfg(1, 8, 5000)
	a := newAdmission()
	if err := a.Acquire(cfg, "", 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.Acquire(cfg, "", 50) // per-request deadline tightens the 5s default
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("Acquire = %v, want ErrDeadline", err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond || elapsed > 2*time.Second {
		t.Fatalf("deadline fired after %v, want ~50ms", elapsed)
	}
	st := a.Stats()
	if st.Expired != 1 || st.Queued != 0 {
		t.Fatalf("stats after expiry: %+v", st)
	}
}

// TestAdmissionFIFOHandoff releases a slot and requires the oldest waiter
// to get it.
func TestAdmissionFIFOHandoff(t *testing.T) {
	cfg := admCfg(1, 8, 2000)
	a := newAdmission()
	if err := a.Acquire(cfg, "", 0); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.Acquire(cfg, "", 0); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			a.Release(cfg, "")
		}()
		// Park waiters in a known order.
		deadline := time.Now().Add(time.Second)
		for a.Stats().Queued < i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	a.Release(cfg, "")
	wg.Wait()
	if first := <-order; first != 0 {
		t.Fatalf("waiter %d granted first, want FIFO order", first)
	}
}

// TestAdmissionKickAfterRaise raises MaxInFlight via Kick (the config-swap
// path) and requires parked waiters to be granted without any Release.
func TestAdmissionKickAfterRaise(t *testing.T) {
	cfg := admCfg(1, 8, 5000)
	a := newAdmission()
	if err := a.Acquire(cfg, "", 0); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if err := a.Acquire(cfg, "", 0); err != nil {
			t.Errorf("waiter: %v", err)
		}
		close(granted)
	}()
	deadline := time.Now().Add(time.Second)
	for a.Stats().Queued < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	wide := cfg
	wide.MaxInFlight = 2
	a.Kick(wide)
	select {
	case <-granted:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not granted after Kick with raised limit")
	}
	if got := a.Stats().InFlight; got != 2 {
		t.Fatalf("in-flight = %d after kick, want 2", got)
	}
}

// TestAdmissionCounters checks the monotone counters the /stats endpoint
// and load harness read.
func TestAdmissionCounters(t *testing.T) {
	cfg := admCfg(1, 0, 100)
	a := newAdmission()
	if err := a.Acquire(cfg, "t", 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Acquire(cfg, "t", 0); !errors.Is(err, ErrShed) {
		t.Fatalf("second acquire = %v, want ErrShed", err)
	}
	a.Release(cfg, "t")
	st := a.Stats()
	if st.Admitted != 1 || st.Shed != 1 || st.InFlight != 0 || st.Queued != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAdmissionReleaseFreesTenantQuota: a finished query's slot and its
// tenant count go back together, so the same tenant's next arrival at a
// quota of one is admitted at once, not shed against the query that just
// finished.
func TestAdmissionReleaseFreesTenantQuota(t *testing.T) {
	cfg := admCfg(8, 8, 1000)
	cfg.TenantMaxInFlight = 1
	a := newAdmission()
	if err := a.Acquire(cfg, "a", 0); err != nil {
		t.Fatal(err)
	}
	a.Release(cfg, "a")
	if err := a.Acquire(cfg, "a", 0); err != nil {
		t.Fatalf("acquire after release = %v, want admitted", err)
	}
	if st := a.Stats(); st.InFlight != 1 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want 1 in flight, none shed", st)
	}
}
