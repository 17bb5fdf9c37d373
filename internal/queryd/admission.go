// Admission control for the query service: a bounded in-flight window
// with a FIFO wait queue, deadline-based shedding, and per-tenant quotas.
//
// The controller is deliberately not part of the config snapshot: limits
// are read from whatever snapshot the caller passes at each decision
// point, so a config swap takes effect immediately for new arrivals and
// for slot handoff, while queries admitted under the old limits simply
// drain. Raising MaxInFlight calls Kick to grant waiting queries at once.
package queryd

import (
	"container/list"
	"errors"
	"sync"
	"time"
)

// Admission errors map onto HTTP statuses in the server: both are 429s,
// distinguished in the body and the shed counters.
var (
	// ErrShed is returned when the wait queue is full — the open-loop
	// overload signal.
	ErrShed = errors.New("queryd: admission queue full")
	// ErrDeadline is returned when a queued query's deadline expires
	// before a slot frees.
	ErrDeadline = errors.New("queryd: queue deadline exceeded")
)

// waiter is one queued query. granted is closed with the slot already
// transferred, so the waiter runs without re-checking the limit.
type waiter struct {
	granted chan struct{}
}

// admission tracks the in-flight window. All fields are guarded by mu;
// admission decisions are short critical sections (no allocation beyond
// the waiter, no I/O), so the lock is never the serving bottleneck — the
// queries themselves run for milliseconds.
type admission struct {
	mu       sync.Mutex
	inflight int
	queue    list.List // of *waiter, FIFO
	tenants  map[string]int

	// Monotone counters for /stats and the load harness.
	admitted uint64
	shed     uint64
	expired  uint64
}

func newAdmission() *admission {
	return &admission{tenants: map[string]int{}}
}

// Acquire blocks until the query holds an in-flight slot, the queue
// deadline passes (ErrDeadline), or the queue is full on arrival
// (ErrShed). On success the caller must Release exactly once.
func (a *admission) Acquire(cfg Config, tenant string, deadlineMS int64) error {
	a.mu.Lock()
	if cfg.TenantMaxInFlight > 0 && a.tenants[tenant] >= cfg.TenantMaxInFlight {
		a.shed++
		a.mu.Unlock()
		return ErrShed
	}
	if a.inflight < cfg.MaxInFlight && a.queue.Len() == 0 {
		a.inflight++
		a.tenants[tenant]++
		a.admitted++
		a.mu.Unlock()
		return nil
	}
	if a.queue.Len() >= cfg.MaxQueue {
		a.shed++
		a.mu.Unlock()
		return ErrShed
	}
	w := &waiter{granted: make(chan struct{})}
	elem := a.queue.PushBack(w)
	a.tenants[tenant]++ // queued queries count against the tenant quota
	a.mu.Unlock()

	timer := time.NewTimer(cfg.queueTimeout(deadlineMS))
	defer timer.Stop()
	select {
	case <-w.granted:
		return nil
	case <-timer.C:
		a.mu.Lock()
		select {
		case <-w.granted:
			// Granted in the race window: keep the slot rather than
			// bouncing it through the queue again.
			a.mu.Unlock()
			return nil
		default:
		}
		a.queue.Remove(elem)
		a.tenants[tenant]--
		a.expired++
		a.mu.Unlock()
		return ErrDeadline
	}
}

// Release returns the query's slot, handing it to the oldest waiter if
// the current limits allow.
func (a *admission) Release(cfg Config) {
	a.mu.Lock()
	a.inflight--
	a.grantLocked(cfg)
	a.mu.Unlock()
}

// Kick re-evaluates the queue against cfg — called after a config swap so
// a raised MaxInFlight takes effect without waiting for a release.
func (a *admission) Kick(cfg Config) {
	a.mu.Lock()
	a.grantLocked(cfg)
	a.mu.Unlock()
}

// grantLocked moves waiters into the in-flight window while it has room.
func (a *admission) grantLocked(cfg Config) {
	for a.inflight < cfg.MaxInFlight {
		front := a.queue.Front()
		if front == nil {
			return
		}
		w := a.queue.Remove(front).(*waiter)
		a.inflight++ // tenant count already includes queued waiters
		a.admitted++
		close(w.granted)
	}
}

// ReleaseTenant decrements the tenant count after the query finishes
// (success or error past admission).
func (a *admission) ReleaseTenant(tenant string) {
	a.mu.Lock()
	a.tenants[tenant]--
	if a.tenants[tenant] <= 0 {
		delete(a.tenants, tenant)
	}
	a.mu.Unlock()
}

// AdmissionStats is the /stats wire form of the admission counters.
type AdmissionStats struct {
	InFlight int    `json:"in_flight"`
	Queued   int    `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Expired  uint64 `json:"expired"`
}

// Stats snapshots the admission state.
func (a *admission) Stats() AdmissionStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionStats{
		InFlight: a.inflight,
		Queued:   a.queue.Len(),
		Admitted: a.admitted,
		Shed:     a.shed,
		Expired:  a.expired,
	}
}
