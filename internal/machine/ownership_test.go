package machine

import (
	"testing"

	"coma/internal/coherence"
	"coma/internal/config"
)

// TestRunReturnsEveryReplyFuture is the guard on the reply-future
// ownership rule (DESIGN.md §10.3): every future the protocol engine
// takes from its pool is back by the end of the run, and no write is
// still collecting acks. Failures are applied only after the
// coordinator's quiesce, so a rollback or a reconfiguration must not
// strand a future on a transaction whose reply never came.
func TestRunReturnsEveryReplyFuture(t *testing.T) {
	probe := baseCfg(16, coherence.ECP)
	probe.App = smallApp(100_000)
	span := probeCycles(t, probe)

	for _, tc := range []struct {
		name      string
		failures  []config.FailureEvent
		rollbacks int64
	}{
		{"fault-free", nil, 0},
		{"transient", []config.FailureEvent{{At: span / 2, Node: 5}}, 1},
		{"permanent", []config.FailureEvent{{At: span / 2, Node: 3, Permanent: true}}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := probe
			cfg.CheckpointInterval = span / 8
			cfg.Failures = tc.failures
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if r.Ckpt.Recoveries != tc.rollbacks {
				t.Fatalf("rollbacks = %d, want %d", r.Ckpt.Recoveries, tc.rollbacks)
			}
			if r.Ckpt.Established == 0 {
				t.Fatal("no recovery point was established")
			}
			coh := m.Coherence()
			if n := coh.PendingReplies(); n != 0 {
				t.Errorf("%d reply futures never returned to the pool", n)
			}
			if n := coh.PendingAcks(); n != 0 {
				t.Errorf("%d ack collections left open", n)
			}
		})
	}
}
