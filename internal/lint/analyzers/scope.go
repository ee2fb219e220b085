package analyzers

import "strings"

// ConcurrencyAllowlist lists the packages exempt from the determinism and
// simblocking analyzers even though their import paths fall inside the
// checked subtrees. Every entry is a deliberate policy decision with a
// recorded justification; code that wants real goroutines or channels
// belongs in one of these packages (or earns a new entry with a reason),
// not in an analyzer opt-out comment.
var ConcurrencyAllowlist = map[string]string{
	// The campaign worker pool is host-side concurrency by design: it
	// schedules whole simulations, never code running under a sim.Engine.
	// Determinism is preserved by isolation instead of ordering — every
	// simulation owns a private engine and seed-derived RNG streams, so
	// results are bit-identical for any worker schedule (asserted by
	// TestParallelMatchesSerial in internal/experiments).
	"coma/internal/experiments/runner": "campaign worker pool; determinism by per-run isolation",

	// The comad daemon is host-side serve-layer concurrency: HTTP
	// handlers, the job queue's executors and graceful drain run real
	// goroutines and channels around whole simulations, never inside
	// one. Determinism is
	// preserved the same way as the campaign's — per-run isolation —
	// and asserted by the 32-way coalescing test in dedupe_test.go,
	// which requires byte-identical payloads from one shared run.
	"coma/internal/server": "comad daemon; host-side HTTP/scheduler concurrency around isolated runs",

	// The daemon's client blocks on HTTP I/O and Retry-After backoff
	// (wall-clock by nature: it paces requests to a real network
	// service); it never runs under a sim.Engine.
	"coma/internal/server/client": "comad HTTP client; wall-clock backoff against a real service",

	// The cluster worker agent is host-side serve-layer concurrency like
	// the daemon it talks to: slot executors, the heartbeat ticker and
	// the lease long-poll are real goroutines around whole simulations,
	// never inside one. Determinism is preserved by the same per-run
	// isolation argument — each leased job builds a private machine from
	// its canonical identity — and asserted end to end by the
	// kill-a-worker test in internal/cluster, which requires
	// byte-identical campaign tables after a mid-run requeue.
	"coma/internal/cluster": "comad worker agent; host-side lease/heartbeat concurrency around isolated runs",
}

// allowlisted reports whether a package path has a ConcurrencyAllowlist
// entry, matching by full path or import-path suffix.
func allowlisted(pkgPath string) bool {
	for p := range ConcurrencyAllowlist {
		if pkgPath == p || strings.HasSuffix(pkgPath, "/"+p) {
			return true
		}
	}
	return false
}

// inSubtree reports whether pkgPath is root or any package below it,
// matching root by import-path suffix.
func inSubtree(pkgPath, root string) bool {
	return strings.HasSuffix(pkgPath, root) || strings.Contains(pkgPath, root+"/")
}
