// Package server implements triangled, the overload-safe estimation daemon:
// an HTTP/JSON front end over the triangle library that serves estimate,
// clique, and degeneracy queries against a registry of graph files.
//
// The service layer adds exactly the properties a shared daemon needs and
// the library deliberately leaves to its caller:
//
//   - Coalescing: concurrent requests against the same graph ride one
//     triangle.ScanGroup, so their passes fuse onto shared physical scans
//     (DESIGN.md §4) while results stay bit-identical to standalone runs.
//   - Admission control: a fixed slot pool with a bounded queue sheds excess
//     load at the door (429), and a ledger of declared MaxSpaceWords budgets
//     refuses requests that would push the aggregate past a ceiling (503).
//   - Graceful degradation: a request deadline that fires mid-search returns
//     the best completed probe as a 200 with partial=true, never a 500.
//   - Quarantine: repeated non-transient I/O failures trip a per-graph
//     breaker; the graph rejects fast while a backoff re-probe decides when
//     the file is trustworthy again.
//   - Drain: SIGTERM stops admissions, lets in-flight work finish under a
//     grace period, then hard-cancels the scan schedulers and exits cleanly.
package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"degentri/internal/stream"
)

// Config configures a Server. The zero value of every limit means "use the
// default" noted on the field.
type Config struct {
	// Graphs maps the public graph name to its edge-file path.
	Graphs map[string]string

	// Workers bounds shard workers per physical scan (0 = GOMAXPROCS).
	Workers int
	// RetryAttempts is the transient-I/O retry budget of shared scans
	// (0 = library default, negative = disabled).
	RetryAttempts int
	// DecodeCacheBytes is the budget of the process-wide decoded-block
	// cache serving repeat .bex v2 block reads (0 = the stream default of
	// 64 MiB, negative = disabled). Estimates are identical either way.
	DecodeCacheBytes int64

	// MaxConcurrent is the execution slot count. Default 2×GOMAXPROCS,
	// floored at 4.
	MaxConcurrent int
	// QueueDepth bounds requests waiting for a slot; beyond it requests are
	// shed with 429. Default 64.
	QueueDepth int
	// SpaceCeilingWords caps the sum of declared per-request budgets
	// admitted at once. Default 1<<26 (512 MiB of 8-byte words).
	SpaceCeilingWords int64
	// DefaultBudgetWords is the budget assumed for requests that do not
	// declare one. Default 1<<22.
	DefaultBudgetWords int64

	// DefaultTimeout bounds requests that do not declare a deadline.
	// Default 30s.
	DefaultTimeout time.Duration
	// MaxTimeout clamps declared deadlines. Default 120s.
	MaxTimeout time.Duration

	// BreakerThreshold is the consecutive I/O failure count that quarantines
	// a graph. Default 3.
	BreakerThreshold int
	// BreakerBackoff is the first quarantine period; it doubles per re-trip
	// up to BreakerBackoffMax. Defaults 500ms and 30s.
	BreakerBackoff    time.Duration
	BreakerBackoffMax time.Duration

	// AllowInject enables the inject= parameter (fault injection on a
	// private stream). Off in production; the chaos harness turns it on.
	AllowInject bool

	// now overrides the clock in tests (breaker backoff timing).
	now func() time.Time
}

func (c *Config) fillDefaults() {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
		if c.MaxConcurrent < 4 {
			c.MaxConcurrent = 4
		}
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.SpaceCeilingWords <= 0 {
		c.SpaceCeilingWords = 1 << 26
	}
	if c.DefaultBudgetWords <= 0 {
		c.DefaultBudgetWords = 1 << 22
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = 500 * time.Millisecond
	}
	if c.BreakerBackoffMax <= 0 {
		c.BreakerBackoffMax = 30 * time.Second
	}
	if c.DecodeCacheBytes == 0 {
		c.DecodeCacheBytes = stream.DefaultDecodeCacheBytes
	}
}

// decodeCacheEnabled reports whether graphs are served with the
// decoded-block cache (after fillDefaults, negative means disabled).
func (c *Config) decodeCacheEnabled() bool { return c.DecodeCacheBytes > 0 }

// Server is the daemon. Create with New, mount Handler on an http.Server,
// and call Drain on SIGTERM.
type Server struct {
	cfg        Config
	baseCtx    context.Context // lifetime of every ScanGroup scheduler
	baseCancel context.CancelFunc
	adm        *admission
	entries    map[string]*graphEntry
	names      []string // sorted, for stable /graphs and /metrics output
	draining   atomic.Bool
	inflightN  atomic.Int64
	met        metrics
	mux        *http.ServeMux
	started    time.Time
}

// New builds a Server over the configured graph registry. Graphs are opened
// lazily on first request, so a registered path that is broken costs nothing
// until queried (and then feeds that graph's breaker, not the daemon).
func New(cfg Config) (*Server, error) {
	cfg.fillDefaults()
	if len(cfg.Graphs) == 0 {
		return nil, fmt.Errorf("server: no graphs registered")
	}
	// The decoded-block cache is process-wide: the daemon owns its process,
	// so its config is the authority on the budget.
	stream.SetDecodeCacheBudget(cfg.DecodeCacheBytes)
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		baseCtx:    ctx,
		baseCancel: cancel,
		adm:        newAdmission(cfg.MaxConcurrent, cfg.QueueDepth, cfg.SpaceCeilingWords),
		entries:    make(map[string]*graphEntry, len(cfg.Graphs)),
		started:    time.Now(),
	}
	for name, path := range cfg.Graphs {
		s.entries[name] = &graphEntry{
			name: name,
			path: path,
			srv:  s,
			br:   newBreaker(cfg.BreakerThreshold, cfg.BreakerBackoff, cfg.BreakerBackoffMax, cfg.now),
		}
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)

	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", s.handleEstimate)
	mux.HandleFunc("/cliques", s.handleCliques)
	mux.HandleFunc("/degeneracy", s.handleDegeneracy)
	mux.HandleFunc("/graphs", s.handleGraphs)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s, nil
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain performs the shutdown protocol: stop admitting (readyz flips to 503,
// new requests get 503 draining), wait up to grace for in-flight requests to
// finish their waves, then hard-cancel every group's scheduler so stragglers
// abort, and close the groups. It reports whether the drain was clean (all
// requests finished inside the grace period).
func (s *Server) Drain(grace time.Duration) bool {
	s.draining.Store(true)
	deadline := time.Now().Add(grace)
	for s.inflightN.Load() > 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	clean := s.inflightN.Load() == 0
	// Hard phase: cancel the scheduler lifetime so any wave still running
	// aborts at its next batch boundary, then wait briefly for handlers to
	// observe the abort and return.
	s.baseCancel()
	hard := time.Now().Add(2 * time.Second)
	for s.inflightN.Load() > 0 && time.Now().Before(hard) {
		time.Sleep(5 * time.Millisecond)
	}
	s.closeGroups()
	return clean
}

// Close releases everything without the grace protocol (tests, error paths).
func (s *Server) Close() {
	s.draining.Store(true)
	s.baseCancel()
	s.closeGroups()
}

func (s *Server) closeGroups() {
	for _, name := range s.names {
		s.entries[name].quarantine()
	}
}
