package model

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"coma/internal/lint/loader"
	"coma/internal/proto"
)

// Engine names accepted by Extract.
const (
	EngineMesh = "mesh" // coma/internal/coherence (mesh/directory engine)
	EngineBus  = "bus"  // coma/internal/snoop (bus engine)
)

// enginePackages maps an engine name onto its import path.
var enginePackages = map[string]string{
	EngineMesh: "coma/internal/coherence",
	EngineBus:  "coma/internal/snoop",
}

// classifierSets resolves the proto.State classifier methods against the
// real proto definitions, so guard narrowing can never drift from the
// protocol package.
func classifierSets() map[string]StateSet {
	return map[string]StateSet{
		"Readable":            ClassSet(proto.State.Readable),
		"Writable":            ClassSet(proto.State.Writable),
		"Owner":               ClassSet(proto.State.Owner),
		"Recovery":            ClassSet(proto.State.Recovery),
		"CheckpointCommitted": ClassSet(proto.State.CheckpointCommitted),
		"Current":             ClassSet(proto.State.Current),
		"Replaceable":         ClassSet(proto.State.Replaceable),
		"Modified":            ClassSet(proto.State.Modified),
		"Primary":             ClassSet(proto.State.Primary),
	}
}

// Site is one resolved state-mutation site.
type Site struct {
	Pos  string // "file.go:line"
	From StateSet
	To   StateSet
	// Annotated marks sites whose From (or To) came from a
	// //coma:transition comment rather than guard narrowing.
	Annotated bool
}

// ExtractResult is the outcome of one engine's extraction pass.
type ExtractResult struct {
	Engine string
	Table  *Table
	Sites  []Site
	// Errors lists unresolved sites, orphan annotations and annotation
	// inconsistencies. A non-empty list means the audit failed: some
	// mutation site could not be proven to realise a known (From, To)
	// set.
	Errors []string
}

// annotation is one parsed //coma:transition comment.
type annotation struct {
	from, to StateSet
	file     string
	line     int
	used     bool
}

var annRe = regexp.MustCompile(`^coma:transition\s+(\S+)\s*->\s*(\S+)\s*$`)

// stateByName maps state names for annotation parsing.
var stateByName = func() map[string]proto.State {
	m := make(map[string]proto.State, len(States))
	for _, st := range States {
		m[st.String()] = st
	}
	return m
}()

func parseStateList(s string) (StateSet, error) {
	var set StateSet
	for _, name := range strings.Split(s, "|") {
		st, ok := stateByName[strings.TrimSpace(name)]
		if !ok {
			return 0, fmt.Errorf("unknown state %q", name)
		}
		set = set.With(st)
	}
	return set, nil
}

// Extract runs the dataflow pass over one engine package and returns its
// code-derived transition table. moduleDir is the module root (the
// directory holding go.mod).
func Extract(moduleDir, engine string) (*ExtractResult, error) {
	pkgPath, ok := enginePackages[engine]
	if !ok {
		return nil, fmt.Errorf("model: unknown engine %q (have mesh, bus)", engine)
	}
	l := loader.New(moduleDir)
	pkgs, err := l.Load(pkgPath)
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("model: %q resolved to %d packages", pkgPath, len(pkgs))
	}
	x := &extractor{
		pkg:     pkgs[0],
		fset:    pkgs[0].Fset,
		info:    pkgs[0].Info,
		table:   NewTable("code:" + engine),
		classes: classifierSets(),
		anns:    make(map[string][]*annotation),
	}
	x.collectAnnotations()
	for _, f := range x.pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			x.walkBlock(fd.Body, newEnv())
		}
	}
	for _, file := range sortedAnnFiles(x.anns) {
		for _, a := range x.anns[file] {
			if !a.used {
				x.errorf("%s:%d: orphan //coma:transition annotation (no state-mutation site within 3 lines below)",
					filepath.Base(a.file), a.line)
			}
		}
	}
	sort.Slice(x.sites, func(i, j int) bool { return x.sites[i].Pos < x.sites[j].Pos })
	sort.Strings(x.errs)
	return &ExtractResult{Engine: engine, Table: x.table, Sites: x.sites, Errors: x.errs}, nil
}

func sortedAnnFiles(m map[string][]*annotation) []string {
	out := make([]string, 0, len(m))
	for f := range m {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// extractor walks one package's functions with a guard-narrowing
// abstract environment.
type extractor struct {
	pkg     *loader.Package
	fset    *token.FileSet
	info    *types.Info
	table   *Table
	classes map[string]StateSet
	anns    map[string][]*annotation // file path -> annotations
	sites   []Site
	errs    []string
}

func (x *extractor) errorf(format string, args ...any) {
	x.errs = append(x.errs, fmt.Sprintf(format, args...))
}

func (x *extractor) collectAnnotations() {
	for _, f := range x.pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				m := annRe.FindStringSubmatch(text)
				if m == nil {
					continue
				}
				pos := x.fset.Position(c.Pos())
				from, err := parseStateList(m[1])
				if err != nil {
					x.errorf("%s:%d: bad //coma:transition: %v", filepath.Base(pos.Filename), pos.Line, err)
					continue
				}
				to, err := parseStateList(m[2])
				if err != nil {
					x.errorf("%s:%d: bad //coma:transition: %v", filepath.Base(pos.Filename), pos.Line, err)
					continue
				}
				x.anns[pos.Filename] = append(x.anns[pos.Filename],
					&annotation{from: from, to: to, file: pos.Filename, line: pos.Line})
			}
		}
	}
}

// annotationFor finds an unconsumed annotation on the site's line or up
// to three lines above it.
func (x *extractor) annotationFor(pos token.Position) *annotation {
	for _, a := range x.anns[pos.Filename] {
		if !a.used && a.line <= pos.Line && pos.Line-a.line <= 3 {
			return a
		}
	}
	return nil
}

// env is the abstract state environment: canonical-cell keys mapped to
// the set of coherence states the cell may hold here, plus variable
// bindings (st := am.State(item), slot := am.Slot(item), scan-callback
// params) onto those keys.
type env struct {
	sets map[string]StateSet
	bind map[types.Object]string
	mut  map[string]bool // keys written by a mutation site in this scope
}

func newEnv() *env {
	return &env{
		sets: make(map[string]StateSet),
		bind: make(map[types.Object]string),
		mut:  make(map[string]bool),
	}
}

func (e *env) clone() *env {
	c := newEnv()
	for k, v := range e.sets {
		c.sets[k] = v
	}
	for k, v := range e.bind {
		c.bind[k] = v
	}
	return c
}

func (e *env) get(key string) StateSet {
	if s, ok := e.sets[key]; ok {
		return s
	}
	return AllStates()
}

func (e *env) narrowKey(key string, s StateSet) {
	e.sets[key] = e.get(key).Intersect(s)
}

// mergeMut widens the parent environment by the child branch's mutation
// effects: a key mutated on a non-terminating branch may hold either its
// old or its new states afterwards.
func (e *env) mergeMut(child *env, childTerminates bool) {
	if childTerminates {
		return
	}
	for k := range child.mut {
		e.sets[k] = e.get(k).Union(child.get(k))
		e.mut[k] = true
	}
}

// ---- type tests -------------------------------------------------------

func namedIs(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix) && obj.Name() == name
}

func (x *extractor) isAM(e ast.Expr) bool {
	tv, ok := x.info.Types[e]
	return ok && tv.Type != nil && namedIs(tv.Type, "internal/am", "AM")
}

func (x *extractor) isSlot(t types.Type) bool { return namedIs(t, "internal/am", "Slot") }

// stateConst resolves an expression to a compile-time proto.State value.
func (x *extractor) stateConst(e ast.Expr) (proto.State, bool) {
	tv, ok := x.info.Types[e]
	if !ok || tv.Value == nil || tv.Type == nil || !namedIs(tv.Type, "internal/proto", "State") {
		return 0, false
	}
	v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
	if !ok {
		return 0, false
	}
	return proto.State(v), true
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

func (x *extractor) objOf(id *ast.Ident) types.Object {
	if o := x.info.Uses[id]; o != nil {
		return o
	}
	return x.info.Defs[id]
}

// keyOf returns the canonical cell key an expression reads, if any:
// X.State(item) calls, bound state variables, and .State selections on
// bound slot variables or scan-callback params.
func (x *extractor) keyOf(e ast.Expr, ev *env) (string, bool) {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if o := x.objOf(e); o != nil {
			if k, ok := ev.bind[o]; ok {
				return k, true
			}
		}
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "State" &&
			x.isAM(sel.X) && len(e.Args) == 1 {
			return cellKey(sel.X, e.Args[0]), true
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "State" {
			if id, ok := unparen(e.X).(*ast.Ident); ok {
				if o := x.objOf(id); o != nil {
					if k, ok := ev.bind[o]; ok {
						return k, true
					}
				}
			}
		}
	}
	return "", false
}

func cellKey(amExpr, itemExpr ast.Expr) string {
	return "ST:" + types.ExprString(amExpr) + ":" + types.ExprString(itemExpr)
}

// bindingKey recognises RHS expressions that establish a cell binding:
// X.State(item) and X.Slot(item).
func (x *extractor) bindingKey(rhs ast.Expr) (string, bool) {
	call, ok := unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "State" && sel.Sel.Name != "Slot") || !x.isAM(sel.X) {
		return "", false
	}
	return cellKey(sel.X, call.Args[0]), true
}

// ---- condition narrowing ---------------------------------------------

// constraint computes, for a condition taken with the given truth value,
// the per-key state constraints it implies. Missing keys are
// unconstrained.
func (x *extractor) constraint(e ast.Expr, truth bool, ev *env) map[string]StateSet {
	switch e := unparen(e).(type) {
	case *ast.BinaryExpr:
		switch e.Op {
		case token.LAND:
			a := x.constraint(e.X, truth, ev)
			b := x.constraint(e.Y, truth, ev)
			if truth {
				return mergeIntersect(a, b)
			}
			return mergeUnion(a, b) // !(A && B) == !A || !B
		case token.LOR:
			a := x.constraint(e.X, truth, ev)
			b := x.constraint(e.Y, truth, ev)
			if truth {
				return mergeUnion(a, b)
			}
			return mergeIntersect(a, b) // !(A || B) == !A && !B
		case token.EQL, token.NEQ:
			var key string
			var st proto.State
			var keyed, isConst bool
			if key, keyed = x.keyOf(e.X, ev); keyed {
				st, isConst = x.stateConst(e.Y)
			} else if key, keyed = x.keyOf(e.Y, ev); keyed {
				st, isConst = x.stateConst(e.X)
			}
			if !keyed || !isConst {
				return nil
			}
			eq := e.Op == token.EQL
			if eq == truth {
				return map[string]StateSet{key: SetOf(st)}
			}
			return map[string]StateSet{key: AllStates().Without(st)}
		}
	case *ast.UnaryExpr:
		if e.Op == token.NOT {
			return x.constraint(e.X, !truth, ev)
		}
	case *ast.CallExpr:
		// Classifier-method guard: st.Replaceable(), slot.State.Recovery().
		sel, ok := e.Fun.(*ast.SelectorExpr)
		if !ok || len(e.Args) != 0 {
			return nil
		}
		set, ok := x.classes[sel.Sel.Name]
		if !ok {
			return nil
		}
		key, keyed := x.keyOf(sel.X, ev)
		if !keyed {
			return nil
		}
		if truth {
			return map[string]StateSet{key: set}
		}
		return map[string]StateSet{key: set.Complement()}
	}
	return nil
}

// mergeIntersect conjoins constraint maps (keys may appear in either).
func mergeIntersect(a, b map[string]StateSet) map[string]StateSet {
	out := make(map[string]StateSet, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		if cur, ok := out[k]; ok {
			out[k] = cur.Intersect(v)
		} else {
			out[k] = v
		}
	}
	return out
}

// mergeUnion disjoins constraint maps: a key constrains the result only
// if both alternatives constrain it.
func mergeUnion(a, b map[string]StateSet) map[string]StateSet {
	out := make(map[string]StateSet)
	for k, v := range a {
		if w, ok := b[k]; ok {
			out[k] = v.Union(w)
		}
	}
	return out
}

func (x *extractor) narrow(cond ast.Expr, truth bool, ev *env) {
	for k, v := range x.constraint(cond, truth, ev) {
		ev.narrowKey(k, v)
	}
}

// ---- statement walking ------------------------------------------------

func (x *extractor) walkBlock(b *ast.BlockStmt, ev *env) {
	for _, s := range b.List {
		x.walkStmt(s, ev)
	}
}

func (x *extractor) walkStmts(list []ast.Stmt, ev *env) {
	for _, s := range list {
		x.walkStmt(s, ev)
	}
}

func (x *extractor) walkStmt(s ast.Stmt, ev *env) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		x.walkBlock(s, ev)
	case *ast.AssignStmt:
		x.assign(s, ev)
	case *ast.ExprStmt:
		x.expr(s.X, ev)
	case *ast.IfStmt:
		x.ifStmt(s, ev)
	case *ast.SwitchStmt:
		x.switchStmt(s, ev)
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			cev := ev.clone()
			x.walkStmts(c.(*ast.CaseClause).Body, cev)
			ev.mergeMut(cev, stmtsTerminate(c.(*ast.CaseClause).Body))
		}
	case *ast.RangeStmt:
		bev := ev.clone()
		x.walkBlock(s.Body, bev)
		ev.mergeMut(bev, false)
	case *ast.ForStmt:
		if s.Init != nil {
			x.walkStmt(s.Init, ev)
		}
		bev := ev.clone()
		x.walkBlock(s.Body, bev)
		ev.mergeMut(bev, false)
	case *ast.DeferStmt:
		x.expr(s.Call, ev)
	case *ast.GoStmt:
		x.expr(s.Call, ev)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			x.expr(r, ev)
		}
	case *ast.LabeledStmt:
		x.walkStmt(s.Stmt, ev)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						x.expr(v, ev)
					}
				}
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cev := ev.clone()
			x.walkStmts(c.(*ast.CommClause).Body, cev)
			ev.mergeMut(cev, false)
		}
	}
}

func (x *extractor) ifStmt(s *ast.IfStmt, ev *env) {
	if s.Init != nil {
		x.walkStmt(s.Init, ev)
	}
	thenEv := ev.clone()
	x.narrow(s.Cond, true, thenEv)
	x.walkBlock(s.Body, thenEv)
	thenTerm := blockTerminates(s.Body)
	ev.mergeMut(thenEv, thenTerm)

	elseTerm := false
	if s.Else != nil {
		elseEv := ev.clone()
		x.narrow(s.Cond, false, elseEv)
		x.walkStmt(s.Else, elseEv)
		elseTerm = stmtTerminates(s.Else)
		ev.mergeMut(elseEv, elseTerm)
	}
	// A terminated branch leaves only the other branch's condition
	// holding for the following statements.
	if thenTerm && !elseTerm {
		x.narrow(s.Cond, false, ev)
	} else if elseTerm && !thenTerm {
		x.narrow(s.Cond, true, ev)
	}
}

func (x *extractor) switchStmt(s *ast.SwitchStmt, ev *env) {
	if s.Init != nil {
		x.walkStmt(s.Init, ev)
	}
	if s.Tag != nil {
		key, keyed := x.keyOf(s.Tag, ev)
		var listed StateSet
		if keyed {
			for _, c := range s.Body.List {
				for _, e := range c.(*ast.CaseClause).List {
					if st, ok := x.stateConst(e); ok {
						listed = listed.With(st)
					}
				}
			}
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			cev := ev.clone()
			if keyed {
				if cc.List == nil {
					cev.narrowKey(key, listed.Complement())
				} else {
					var cs StateSet
					all := true
					for _, e := range cc.List {
						st, ok := x.stateConst(e)
						if !ok {
							all = false
							break
						}
						cs = cs.With(st)
					}
					if all {
						cev.narrowKey(key, cs)
					}
				}
			}
			x.walkStmts(cc.Body, cev)
			ev.mergeMut(cev, stmtsTerminate(cc.Body))
		}
		return
	}
	// Condition switch: each clause is a disjunction of boolean guards;
	// default means all of them were false.
	for _, c := range s.Body.List {
		cc := c.(*ast.CaseClause)
		cev := ev.clone()
		if cc.List != nil {
			var m map[string]StateSet
			for i, cond := range cc.List {
				cm := x.constraint(cond, true, cev)
				if i == 0 {
					m = cm
				} else {
					m = mergeUnion(m, cm)
				}
			}
			for k, v := range m {
				cev.narrowKey(k, v)
			}
		} else {
			for _, other := range s.Body.List {
				for _, cond := range other.(*ast.CaseClause).List {
					x.narrow(cond, false, cev)
				}
			}
		}
		x.walkStmts(cc.Body, cev)
		ev.mergeMut(cev, stmtsTerminate(cc.Body))
	}
}

func (x *extractor) assign(s *ast.AssignStmt, ev *env) {
	for _, r := range s.Rhs {
		x.expr(r, ev)
	}
	if len(s.Lhs) == len(s.Rhs) {
		for i, lhs := range s.Lhs {
			rhs := s.Rhs[i]
			if id, ok := unparen(lhs).(*ast.Ident); ok {
				o := x.objOf(id)
				if o == nil {
					continue
				}
				if key, ok := x.bindingKey(rhs); ok {
					ev.bind[o] = key
				} else {
					delete(ev.bind, o)
				}
				continue
			}
			// s.State = <const> inside a scan callback, or any direct
			// field write to a bound slot.
			if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok && sel.Sel.Name == "State" {
				if key, ok := x.keyOf(lhs, ev); ok {
					var to StateSet
					if st, isConst := x.stateConst(rhs); isConst {
						to = SetOf(st)
					}
					x.site(lhs.Pos(), key, to, ev)
				}
			}
		}
		return
	}
	// Multi-value assignment: the RHS is opaque, drop any bindings.
	for _, lhs := range s.Lhs {
		if id, ok := unparen(lhs).(*ast.Ident); ok {
			if o := x.objOf(id); o != nil {
				delete(ev.bind, o)
			}
		}
	}
}

func (x *extractor) expr(e ast.Expr, ev *env) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		// Walk nested function literals (closures passed around).
		ast.Inspect(e, func(n ast.Node) bool {
			if fl, ok := n.(*ast.FuncLit); ok {
				x.walkBlock(fl.Body, ev.clone())
				return false
			}
			return true
		})
		return
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && x.isAM(sel.X) {
		switch sel.Sel.Name {
		case "SetState":
			if len(call.Args) == 2 {
				key := cellKey(sel.X, call.Args[0])
				var to StateSet
				if st, isConst := x.stateConst(call.Args[1]); isConst {
					to = SetOf(st)
				}
				x.site(call.Pos(), key, to, ev)
				return
			}
		case "Set":
			if len(call.Args) == 2 {
				key := cellKey(sel.X, call.Args[0])
				x.site(call.Pos(), key, x.compositeState(call.Args[1]), ev)
				return
			}
		case "ForEachAllocated":
			if len(call.Args) == 1 {
				if fl, ok := call.Args[0].(*ast.FuncLit); ok {
					x.scanCallback(sel.X, fl, ev)
					return
				}
			}
		}
	}
	for _, a := range call.Args {
		if fl, ok := a.(*ast.FuncLit); ok {
			x.walkBlock(fl.Body, ev.clone())
		} else {
			x.expr(a, ev)
		}
	}
}

// compositeState pulls the State field out of an am.Slot{...} composite.
func (x *extractor) compositeState(e ast.Expr) StateSet {
	cl, ok := unparen(e).(*ast.CompositeLit)
	if !ok {
		return 0
	}
	tv, ok := x.info.Types[cl]
	if !ok || !x.isSlot(tv.Type) {
		return 0
	}
	for _, el := range cl.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "State" {
			if st, isConst := x.stateConst(kv.Value); isConst {
				return SetOf(st)
			}
			return 0
		}
	}
	// No State field: the zero value is Invalid.
	return SetOf(proto.Invalid)
}

// scanCallback walks a ForEachAllocated callback with its slot parameter
// bound to a fresh cell covering every allocated slot.
func (x *extractor) scanCallback(amExpr ast.Expr, fl *ast.FuncLit, ev *env) {
	cev := ev.clone()
	params := fl.Type.Params.List
	if len(params) >= 2 && len(params[1].Names) == 1 {
		o := x.info.Defs[params[1].Names[0]]
		if o != nil {
			key := fmt.Sprintf("CB:%s:%d", types.ExprString(amExpr), x.fset.Position(fl.Pos()).Line)
			cev.bind[o] = key
			cev.sets[key] = AllStates()
		}
	}
	x.walkBlock(fl.Body, cev)
}

// site resolves one mutation site into edges.
func (x *extractor) site(pos token.Pos, key string, to StateSet, ev *env) {
	p := x.fset.Position(pos)
	where := fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)

	from := StateSet(0)
	if key != "" {
		if got := ev.get(key); got != AllStates() {
			// An unconstrained cell is indistinguishable from a missed
			// guard; require narrowing or an annotation.
			from = got
		}
	}
	annotated := false
	if a := x.annotationFor(p); a != nil {
		a.used = true
		annotated = true
		if !a.from.Empty() {
			from = a.from
		}
		if !a.to.Empty() {
			if !to.Empty() && to != a.to {
				x.errorf("%s: //coma:transition To %v disagrees with the code's constant %v",
					where, a.to, to)
			}
			if to.Empty() {
				to = a.to
			}
		}
	}
	if from.Empty() {
		x.errorf("%s: cannot resolve the From states of this mutation (no guard narrowing; add a //coma:transition annotation)", where)
	}
	if to.Empty() {
		x.errorf("%s: cannot resolve the To states of this mutation (non-constant state; add a //coma:transition annotation)", where)
	}
	x.sites = append(x.sites, Site{Pos: where, From: from, To: to, Annotated: annotated})
	for _, f := range from.List() {
		for _, t := range to.List() {
			x.table.Add(proto.Edge{From: f, To: t}, where)
		}
	}
	// Effect: the cell now holds one of the written states.
	if key != "" && !to.Empty() {
		ev.sets[key] = to
		ev.mut[key] = true
	}
}

// ---- termination ------------------------------------------------------

func blockTerminates(b *ast.BlockStmt) bool { return stmtsTerminate(b.List) }

func stmtsTerminate(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	return stmtTerminates(list[len(list)-1])
}

func stmtTerminates(s ast.Stmt) bool {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return s.Tok == token.CONTINUE || s.Tok == token.BREAK || s.Tok == token.GOTO
	case *ast.BlockStmt:
		return blockTerminates(s)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		if !blockTerminates(s.Body) {
			return false
		}
		return s.Else != nil && stmtTerminates(s.Else)
	}
	return false
}

// ---- attraction-memory audit -----------------------------------------

// amWhitelist names the am.AM methods allowed to write slot state: the
// audited helpers every engine mutation flows through (plus frame
// allocation and the fail-silent wipe).
var amWhitelist = map[string]bool{
	"Set": true, "SetState": true, "SetPartner": true,
	"AllocFrame": true, "Clear": true,
}

// AuditAM verifies that inside coma/internal/am every write to slot
// contents happens in one of the whitelisted helpers, so the extractor's
// choke-point assumption (state changes only via Set/SetState or scan
// callbacks) holds. Moving a whole record from one table entry to
// another, as the slot table's growth and removal do, changes no item's
// slot and is not a write. It returns the violations (empty means the
// audit passed).
func AuditAM(moduleDir string) ([]string, error) {
	l := loader.New(moduleDir)
	pkgs, err := l.Load("coma/internal/am")
	if err != nil {
		return nil, err
	}
	if len(pkgs) != 1 {
		return nil, fmt.Errorf("model: coma/internal/am resolved to %d packages", len(pkgs))
	}
	pkg := pkgs[0]
	var violations []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				as, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for k, lhs := range as.Lhs {
					var rhs ast.Expr
					if len(as.Rhs) == len(as.Lhs) {
						rhs = as.Rhs[k]
					}
					if !writesSlot(pkg.Info, lhs, rhs) {
						continue
					}
					if amWhitelist[name] {
						continue
					}
					p := pkg.Fset.Position(lhs.Pos())
					violations = append(violations, fmt.Sprintf(
						"%s:%d: %s writes slot contents outside the audited helpers (%s)",
						filepath.Base(p.Filename), p.Line, name, types.ExprString(lhs)))
				}
				return true
			})
		}
	}
	sort.Strings(violations)
	return violations, nil
}

// writesSlot reports whether assigning rhs (nil when unknown) to lhs
// stores into an am.Slot value, one of its exported fields, or an array
// of slots. Two stores are not slot writes: a whole-record move, where
// both sides are elements of slot tables (growth and removal in the
// slot table), and a store to an unexported field, which is the table's
// bookkeeping rather than the item's contents.
func writesSlot(info *types.Info, lhs, rhs ast.Expr) bool {
	lhs = unparen(lhs)
	if tv, ok := info.Types[lhs]; ok && tv.Type != nil &&
		(namedIs(tv.Type, "internal/am", "Slot") || slotArray(tv.Type)) {
		return !slotMove(info, lhs, rhs)
	}
	if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.IsExported() {
		if tv, ok := info.Types[sel.X]; ok && tv.Type != nil && namedIs(tv.Type, "internal/am", "Slot") {
			return true
		}
	}
	return false
}

// slotMove reports whether lhs = rhs copies one table element of slots
// into another: both sides index a slice or array and have the same
// slot type.
func slotMove(info *types.Info, lhs, rhs ast.Expr) bool {
	if rhs == nil {
		return false
	}
	rhs = unparen(rhs)
	_, li := lhs.(*ast.IndexExpr)
	_, ri := rhs.(*ast.IndexExpr)
	if !li || !ri {
		return false
	}
	lt, rt := info.Types[lhs], info.Types[rhs]
	return lt.Type != nil && rt.Type != nil && types.Identical(lt.Type, rt.Type) &&
		namedIs(lt.Type, "internal/am", "Slot")
}

// slotArray reports whether t is an array of am.Slot values (not of
// pointers to them).
func slotArray(t types.Type) bool {
	arr, ok := t.Underlying().(*types.Array)
	if !ok {
		return false
	}
	_, ptr := arr.Elem().(*types.Pointer)
	return !ptr && namedIs(arr.Elem(), "internal/am", "Slot")
}
