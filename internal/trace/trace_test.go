package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"coma/internal/workload"
)

func roundTrip(t *testing.T, refs []workload.Ref) []workload.Ref {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestRoundTripBasic(t *testing.T) {
	refs := []workload.Ref{
		workload.I(100),
		workload.R(0x1000),
		workload.W(0x1008),
		{Kind: workload.Read, Addr: 1 << 30}, // private (unshared) read
		workload.B(),
		{Kind: workload.End},
	}
	got := roundTrip(t, refs)
	if len(got) != len(refs) {
		t.Fatalf("decoded %d refs, want %d", len(got), len(refs))
	}
	for i := range refs {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %+v, want %+v", i, got[i], refs[i])
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint32, kinds []uint8) bool {
		n := len(addrs)
		if len(kinds) < n {
			n = len(kinds)
		}
		refs := make([]workload.Ref, 0, n+1)
		for i := 0; i < n; i++ {
			addr := uint64(addrs[i]) &^ 7
			switch kinds[i] % 4 {
			case 0:
				refs = append(refs, workload.Ref{Kind: workload.Instr, N: int64(addrs[i] % 1000)})
			case 1:
				refs = append(refs, workload.Ref{Kind: workload.Read, Addr: addr, Shared: kinds[i]&8 != 0})
			case 2:
				refs = append(refs, workload.Ref{Kind: workload.Write, Addr: addr, Shared: kinds[i]&8 != 0})
			case 3:
				refs = append(refs, workload.Ref{Kind: workload.Barrier})
			}
		}
		refs = append(refs, workload.Ref{Kind: workload.End})
		got := roundTrip(t, refs)
		if len(got) != len(refs) {
			return false
		}
		for i := range refs {
			if got[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRecordAndReplayGenerator(t *testing.T) {
	spec := workload.Water().Scale(0.0005)
	var buf bytes.Buffer
	count, err := Record(spec.NewApp(2, 8, 7), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("nothing recorded")
	}
	replay, err := Replay("water-trace", &buf)
	if err != nil {
		t.Fatal(err)
	}
	fresh := spec.NewApp(2, 8, 7)
	for i := 0; ; i++ {
		want := fresh.Next()
		got := replay.Next()
		if got != want {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, got, want)
		}
		if want.Kind == workload.End {
			break
		}
	}
}

func TestReplaySupportsRollback(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Record(workload.NewScript("s", []workload.Ref{
		workload.R(0), workload.W(8), workload.R(16),
	}), &buf); err != nil {
		t.Fatal(err)
	}
	g, err := Replay("s", &buf)
	if err != nil {
		t.Fatal(err)
	}
	g.Next()
	g.Commit()
	second := g.Next()
	g.Rollback()
	if got := g.Next(); got != second {
		t.Fatalf("rollback replay = %+v, want %+v", got, second)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace"))); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestCompressionIsEffective(t *testing.T) {
	spec := workload.Barnes().Scale(0.0005)
	var buf bytes.Buffer
	count, err := Record(spec.NewApp(0, 16, 1), &buf)
	if err != nil {
		t.Fatal(err)
	}
	perRef := float64(buf.Len()) / float64(count)
	if perRef > 6 {
		t.Fatalf("trace uses %.1f bytes/ref; encoding regressed", perRef)
	}
}
