// Control-plane configuration for the query service, following the
// control-plane/data-plane split: all mutable state — admission limits,
// quotas, and the dataset catalog — lives in one immutable snapshot
// behind an atomic pointer. The data plane loads the pointer once per
// request and never takes a lock; configuration changes build a fresh
// snapshot offline (including any new dataset materialization) and swap
// it in atomically.
package queryd

import (
	"fmt"
	"time"
)

// Config is the admission/quota configuration. The zero value is invalid;
// start from DefaultConfig.
type Config struct {
	// MaxInFlight bounds queries executing concurrently on the runtime.
	MaxInFlight int `json:"max_in_flight"`
	// MaxQueue bounds queries waiting for an in-flight slot; arrivals
	// beyond it are shed immediately with 429.
	MaxQueue int `json:"max_queue"`
	// QueueTimeoutMS is the default time a query may wait in the admission
	// queue before being shed with 429 (queries can tighten it per-request
	// with deadline_ms, never extend it).
	QueueTimeoutMS int64 `json:"queue_timeout_ms"`
	// TenantMaxInFlight caps admitted-plus-queued queries per tenant
	// (0 = no per-tenant quota). Requests without a tenant share the ""
	// tenant.
	TenantMaxInFlight int `json:"tenant_max_in_flight"`
	// MaxPriority clamps the per-query priority range to
	// [-MaxPriority, MaxPriority] so one client cannot starve the pool by
	// claiming an arbitrarily high priority.
	MaxPriority int `json:"max_priority"`
	// CacheEntries bounds the result cache (0 = caching off, the
	// default). Cached queries are answered before admission control, so
	// a repeated-query mix gains throughput and sheds queue pressure at
	// once; entries are keyed on catalog version and column generations,
	// so swaps and re-encodes invalidate without a flush pass.
	CacheEntries int `json:"cache_entries"`
	// SlowQueryMS is the slow-query-log threshold in milliseconds
	// (0 = the default, 250): queries at or over it enter the slow ring
	// served at /debug/slowlog. Every query is profiled (stage timings,
	// cache outcome, per-column chunk accounting, morsel claims) and its
	// profile published to the log; "explain": true also returns it
	// inline.
	SlowQueryMS int64 `json:"slow_query_ms"`
}

// DefaultConfig returns serving defaults sized for the load harness: a
// small in-flight bound (concurrency on the worker pool comes from batch
// multiplexing, not from admitting everything at once) and a queue a few
// times deeper.
func DefaultConfig() Config {
	return Config{
		MaxInFlight:       4,
		MaxQueue:          64,
		QueueTimeoutMS:    2000,
		TenantMaxInFlight: 0,
		MaxPriority:       100,
	}
}

// Validate rejects nonsensical configurations before they can be swapped
// in.
func (c Config) Validate() error {
	if c.MaxInFlight <= 0 {
		return fmt.Errorf("queryd: max_in_flight must be positive, got %d", c.MaxInFlight)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("queryd: max_queue must be non-negative, got %d", c.MaxQueue)
	}
	if c.QueueTimeoutMS <= 0 {
		return fmt.Errorf("queryd: queue_timeout_ms must be positive, got %d", c.QueueTimeoutMS)
	}
	if c.TenantMaxInFlight < 0 {
		return fmt.Errorf("queryd: tenant_max_in_flight must be non-negative, got %d", c.TenantMaxInFlight)
	}
	if c.MaxPriority < 0 {
		return fmt.Errorf("queryd: max_priority must be non-negative, got %d", c.MaxPriority)
	}
	if c.CacheEntries < 0 {
		return fmt.Errorf("queryd: cache_entries must be non-negative, got %d", c.CacheEntries)
	}
	if c.SlowQueryMS < 0 {
		return fmt.Errorf("queryd: slow_query_ms must be non-negative, got %d", c.SlowQueryMS)
	}
	return nil
}

// defaultSlowQueryMS is the slow-query-log threshold when the config
// leaves it zero.
const defaultSlowQueryMS = 250

// slowQueryThreshold resolves the configured slow-query threshold.
func (c Config) slowQueryThreshold() time.Duration {
	ms := c.SlowQueryMS
	if ms == 0 {
		ms = defaultSlowQueryMS
	}
	return time.Duration(ms) * time.Millisecond
}

// queueTimeout resolves the admission deadline for a query that asked for
// deadlineMS (0 = none): the config default, tightened but never extended
// by the request.
func (c Config) queueTimeout(deadlineMS int64) time.Duration {
	d := time.Duration(c.QueueTimeoutMS) * time.Millisecond
	if deadlineMS > 0 {
		if rd := time.Duration(deadlineMS) * time.Millisecond; rd < d {
			d = rd
		}
	}
	return d
}

// clampPriority folds a requested priority into the configured range.
func (c Config) clampPriority(p int) int {
	if p > c.MaxPriority {
		return c.MaxPriority
	}
	if p < -c.MaxPriority {
		return -c.MaxPriority
	}
	return p
}

// snapshot is the immutable state the data plane reads: the config plus
// the dataset catalog. A new snapshot shares unchanged datasets with its
// predecessor (they are immutable), so a config-only swap is cheap.
type snapshot struct {
	cfg      Config
	datasets map[string]*Dataset
	// version counts control-plane swaps (config or catalog). It is part
	// of every result-cache key, so a swap implicitly invalidates all
	// cached results without touching the cache.
	version uint64
}

// dataset resolves a dataset by name.
func (s *snapshot) dataset(name string) (*Dataset, error) {
	d, ok := s.datasets[name]
	if !ok {
		return nil, fmt.Errorf("queryd: unknown dataset %q", name)
	}
	return d, nil
}
