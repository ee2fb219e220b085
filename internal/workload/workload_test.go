package workload

import (
	"math"
	"testing"
)

// drain runs a generator to completion, tallying its reference mix.
func drain(t *testing.T, g Generator, limit int64) Tally {
	t.Helper()
	var c Tally
	for i := int64(0); ; i++ {
		if i > limit {
			t.Fatalf("generator %s did not terminate within %d elements", g.Name(), limit)
		}
		r := g.Next()
		if r.Kind == End {
			return c
		}
		c.Add(r)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, s := range Splash() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	for _, name := range []string{"uniform", "private", "migratory"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatalf("preset %s missing", name)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, ok := ByName("nonsense"); ok {
		t.Error("ByName accepted an unknown preset")
	}
}

// TestTable3Fractions checks each synthetic application reproduces the
// paper's Table 3 reference mix within a small tolerance.
func TestTable3Fractions(t *testing.T) {
	for _, spec := range Splash() {
		spec := spec.Scale(0.005) // keep the test fast
		g := spec.NewApp(0, 16, 42)
		c := drain(t, g, 1<<22)
		if c.Instructions == 0 {
			t.Fatalf("%s: no instructions", spec.Name)
		}
		check := func(what string, got, want float64) {
			if math.Abs(got-want) > 0.015 {
				t.Errorf("%s %s fraction = %.3f, want %.3f (Table 3)", spec.Name, what, got, want)
			}
		}
		n := float64(c.Instructions)
		check("read", float64(c.Reads)/n, spec.ReadFrac)
		check("write", float64(c.Writes)/n, spec.WriteFrac)
		check("shared-read", float64(c.SharedReads)/n, spec.SharedReadFrac)
		check("shared-write", float64(c.SharedWrites)/n, spec.SharedWriteFrac)
	}
}

func TestInstructionBudgetSplitAcrossProcs(t *testing.T) {
	spec := Barnes().Scale(0.001)
	g := spec.NewApp(3, 16, 1)
	c := drain(t, g, 1<<22)
	want := spec.Instructions / 16
	if c.Instructions < want-2 || c.Instructions > want+2 {
		t.Fatalf("proc executed %d instructions, want ~%d", c.Instructions, want)
	}
	if c.Barriers != int64(spec.Barriers) {
		t.Fatalf("barriers = %d, want %d", c.Barriers, spec.Barriers)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	mk := func() []Ref {
		g := Mp3d().Scale(0.0005).NewApp(2, 8, 7)
		var out []Ref
		for {
			r := g.Next()
			out = append(out, r)
			if r.Kind == End {
				return out
			}
		}
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestProcsGetDistinctStreams(t *testing.T) {
	g0 := Water().Scale(0.001).NewApp(0, 8, 7)
	g1 := Water().Scale(0.001).NewApp(1, 8, 7)
	same := 0
	total := 0
	for i := 0; i < 500; i++ {
		a, b := g0.Next(), g1.Next()
		if a.Kind == End || b.Kind == End {
			break
		}
		total++
		if a == b {
			same++
		}
	}
	if total == 0 || same > total/2 {
		t.Fatalf("streams nearly identical: %d/%d equal", same, total)
	}
}

func TestCommitRollbackReplaysExactly(t *testing.T) {
	g := Cholesky().Scale(0.001).NewApp(1, 4, 99)
	for i := 0; i < 1000; i++ {
		g.Next()
	}
	g.Commit()
	var first []Ref
	for i := 0; i < 500; i++ {
		first = append(first, g.Next())
	}
	g.Rollback()
	for i, want := range first {
		if got := g.Next(); got != want {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, got, want)
		}
	}
}

func TestAddressRegions(t *testing.T) {
	spec := Barnes().Scale(0.001)
	g := spec.NewApp(5, 16, 3)
	privLo := PrivateBase + 5*PrivateStride
	privHi := privLo + uint64(spec.PrivateBytes)
	sharedHi := SharedBase + uint64(spec.SharedBytes)
	for {
		r := g.Next()
		if r.Kind == End {
			break
		}
		if r.Kind != Read && r.Kind != Write {
			continue
		}
		if r.Shared {
			if r.Addr < SharedBase || r.Addr >= sharedHi {
				t.Fatalf("shared ref outside region: %#x", r.Addr)
			}
		} else {
			if r.Addr < privLo || r.Addr >= privHi {
				t.Fatalf("private ref outside region: %#x", r.Addr)
			}
		}
		if r.Addr%8 != 0 {
			t.Fatalf("unaligned address %#x", r.Addr)
		}
	}
}

func TestMigratoryObjectsRotate(t *testing.T) {
	spec := MigratoryKernel().Scale(0.01)
	g := spec.NewApp(0, 4, 1)
	seen := map[uint64]bool{}
	for {
		r := g.Next()
		if r.Kind == End {
			break
		}
		if r.Kind == Read || r.Kind == Write {
			seen[r.Addr/itemBytes] = true
		}
	}
	if len(seen) < 4 {
		t.Fatalf("migratory kernel touched only %d items", len(seen))
	}
}

func TestWorkingSetRelations(t *testing.T) {
	// Mp3d's working set is nine times Barnes' (§4.2.3).
	ratio := float64(Mp3d().SharedBytes) / float64(Barnes().SharedBytes)
	if ratio != 9 {
		t.Fatalf("mp3d/barnes working-set ratio = %v, want 9", ratio)
	}
}

func TestScaleClampsToOne(t *testing.T) {
	s := Barnes().Scale(1e-12)
	if s.Instructions != 1 {
		t.Fatalf("scaled instructions = %d, want clamp to 1", s.Instructions)
	}
}

func TestScriptGenerator(t *testing.T) {
	s := NewScript("t", []Ref{R(0), W(8), I(5), B(), R(16)})
	if s.Name() != "t" {
		t.Fatal("name")
	}
	if got := s.Next(); got != R(0) {
		t.Fatalf("first = %+v", got)
	}
	s.Commit()
	if got := s.Next(); got != W(8) {
		t.Fatalf("second = %+v", got)
	}
	s.Rollback()
	if got := s.Next(); got != W(8) {
		t.Fatalf("after restore = %+v", got)
	}
	for i := 0; i < 3; i++ {
		s.Next()
	}
	if got := s.Next(); got.Kind != End {
		t.Fatalf("want End, got %+v", got)
	}
	if got := s.Next(); got.Kind != End {
		t.Fatal("End not sticky")
	}
}

func TestValidateRejectsBadSpecs(t *testing.T) {
	bad := Barnes()
	bad.SharedReadFrac = bad.ReadFrac + 0.1
	if bad.Validate() == nil {
		t.Error("accepted shared > total reads")
	}
	bad = Barnes()
	bad.Instructions = 0
	if bad.Validate() == nil {
		t.Error("accepted zero instructions")
	}
	bad = Barnes()
	bad.ReadFrac = 0.9
	bad.WriteFrac = 0.2
	if bad.Validate() == nil {
		t.Error("accepted reference fraction >= 1")
	}
	bad = Barnes()
	bad.Migratory = 0.5
	bad.MigratoryObjects = 0
	if bad.Validate() == nil {
		t.Error("accepted migratory without objects")
	}
}
