package model

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// TestExtractMatchesSpec is the conformance golden: both engines'
// code-derived transition tables must equal proto.ECPTransitions exactly.
func TestExtractMatchesSpec(t *testing.T) {
	root := moduleRoot(t)
	spec := SpecTable()
	if spec.Len() != 35 {
		t.Fatalf("spec has %d edges, want 35", spec.Len())
	}
	for _, engine := range []string{EngineMesh, EngineBus} {
		res, err := Extract(root, engine)
		if err != nil {
			t.Fatalf("Extract(%s): %v", engine, err)
		}
		for _, e := range res.Errors {
			t.Errorf("%s: audit error: %s", engine, e)
		}
		d := Diff(spec, res.Table)
		if !d.Clean() {
			var sb strings.Builder
			d.Write(&sb, spec, res.Table)
			t.Errorf("%s table drifts from spec:\n%s", engine, sb.String())
		}
		if len(res.Sites) == 0 {
			t.Errorf("%s: extractor found no mutation sites", engine)
		}
	}
}

// TestExtractSiteResolution spot-checks that guard narrowing (not just
// annotations) carries real weight: each engine must resolve most of its
// sites statically.
func TestExtractSiteResolution(t *testing.T) {
	root := moduleRoot(t)
	for _, engine := range []string{EngineMesh, EngineBus} {
		res, err := Extract(root, engine)
		if err != nil {
			t.Fatalf("Extract(%s): %v", engine, err)
		}
		annotated := 0
		for _, s := range res.Sites {
			if s.Annotated {
				annotated++
			}
		}
		static := len(res.Sites) - annotated
		if static < annotated {
			t.Errorf("%s: %d statically resolved vs %d annotated sites — the dataflow pass is not pulling its weight",
				engine, static, annotated)
		}
		t.Logf("%s: %d sites (%d static, %d annotated)", engine, len(res.Sites), static, annotated)
	}
}

// TestAuditAM pins that every slot-state write in internal/am flows
// through the audited helpers.
func TestAuditAM(t *testing.T) {
	root := moduleRoot(t)
	bad, err := AuditAM(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range bad {
		t.Errorf("unaudited slot write: %s", v)
	}
}

// TestWritesSlotSeesSlotArrays pins which assignments the AM audit
// counts as slot writes: whole slots, exported slot fields and arrays of
// slots (a chunk stored through a pointer), but not pointers to them,
// arrays of such pointers, the unexported table key, or a whole record
// moved from one table element to another.
func TestWritesSlotSeesSlotArrays(t *testing.T) {
	const src = `package am

type Slot struct {
	Value uint64
	State uint8
	key   int32
}

type chunk [8]Slot

func writes(c *chunk, s *Slot, cs []chunk, refs []*chunk, ps *[8]*Slot, ts []Slot) {
	*c = chunk{}          // write
	c[1] = Slot{}         // write
	c[1].State = 2        // write
	cs[0] = chunk{}       // write
	*s = Slot{}           // write
	s.Value = 1           // write
	ts[0] = *s            // write
	ts[0] = Slot{key: 1}  // write
	*s = ts[1]            // write
	cs[0] = cs[1]         // write
	ts[0].State = 3       // write
	ts[0] = ts[1]         // none
	c[2] = ts[3]          // none
	ts[0].key = 0         // none
	s.key = 1             // none
	refs[0] = c           // none
	*ps = [8]*Slot{}      // none
	cs = cs[1:]           // none
	n := 0                // none
	n = len(refs)         // none
	_ = n
}
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "am.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if _, err := (&types.Config{}).Check("fake/internal/am", fset, []*ast.File{file}, info); err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{}
	for _, cg := range file.Comments {
		switch text := strings.TrimSpace(cg.Text()); text {
		case "write", "none":
			want[fset.Position(cg.Pos()).Line] = text == "write"
		}
	}
	seen := 0
	ast.Inspect(file, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		line := fset.Position(as.Pos()).Line
		w, ok := want[line]
		if !ok {
			return true
		}
		seen++
		if got := writesSlot(info, as.Lhs[0], as.Rhs[0]); got != w {
			t.Errorf("line %d (%s): writesSlot = %v, want %v", line, types.ExprString(as.Lhs[0]), got, w)
		}
		return true
	})
	if seen != len(want) {
		t.Fatalf("checked %d assignments, want %d", seen, len(want))
	}
}
