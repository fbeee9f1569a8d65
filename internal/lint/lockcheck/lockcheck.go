// Package lockcheck enforces SPROUT's mutex discipline with a forward
// dataflow analysis over the cfg pass:
//
//  1. Pairing along all paths: a sync.Mutex/RWMutex locked in a function
//     must be unlocked on every path to return — either explicitly on
//     each path or with a defer. A lock released on some paths but not
//     others (the early-return bug) is reported at the Lock call.
//  2. No blocking while holding: a channel send/receive, a select
//     without a default, an (*os.File).Sync, or an HTTP round-trip
//     executed while a mutex is held couples the critical section to an
//     unbounded external wait — the drain-deadline and WAL-latency
//     guarantees in DESIGN §5b assume critical sections are short.
//  3. Copylocks in results: a function that returns a value containing a
//     sync.Mutex, sync.RWMutex, or sync.WaitGroup by value silently forks
//     the lock state; such types must travel by pointer. go vet's
//     copylocks already reports by-value receivers, parameters and call
//     arguments, but not result types, so only results are checked here.
//
// The analysis is intraprocedural: helpers documented as "callers hold
// mu" neither lock nor unlock and pass untouched, and a lock handed off
// across a call boundary is out of scope (suppress with a justified
// //lint:ignore if a function intentionally returns holding its lock).
// Paths that end in panic or os.Exit never reach the CFG's exit block,
// so a critical section aborted by panic is not a false "missing
// unlock".
package lockcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sprout/internal/lint/analysis"
	"sprout/internal/lint/cfg"
)

// Analyzer is the lockcheck pass.
var Analyzer = &analysis.Analyzer{
	Name:     "lockcheck",
	Doc:      "mutexes must be released on every path, never held across blocking operations, and never returned by value",
	Requires: []*analysis.Analyzer{cfg.Analyzer},
	Run:      run,
}

// abs is the per-mutex abstract state.
type abs int8

const (
	absNo    abs = iota // not held / not registered
	absYes              // held / registered on every path here
	absMixed            // held / registered on some paths only
)

func joinAbs(a, b abs) abs {
	if a == b {
		return a
	}
	return absMixed
}

// lockKey names one mutex as seen from the function: the receiver
// expression text plus the read/write side of an RWMutex.
type lockKey struct {
	expr string
	read bool
}

func (k lockKey) lockName() string {
	if k.read {
		return k.expr + ".RLock"
	}
	return k.expr + ".Lock"
}

func (k lockKey) unlockName() string {
	if k.read {
		return k.expr + ".RUnlock"
	}
	return k.expr + ".Unlock"
}

// state is the dataflow fact: which mutexes are held and which have a
// deferred unlock registered. Maps are treated as immutable; transfer
// copies before writing.
type state struct {
	held map[lockKey]abs
	def  map[lockKey]abs
}

func (s state) clone() state {
	h := make(map[lockKey]abs, len(s.held))
	for k, v := range s.held {
		h[k] = v
	}
	d := make(map[lockKey]abs, len(s.def))
	for k, v := range s.def {
		d[k] = v
	}
	return state{held: h, def: d}
}

func equalAbsMap(a, b map[lockKey]abs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func joinAbsMap(a, b map[lockKey]abs) map[lockKey]abs {
	out := make(map[lockKey]abs, len(a)+len(b))
	for k, va := range a {
		out[k] = joinAbs(va, b[k])
	}
	for k, vb := range b {
		if _, ok := a[k]; !ok {
			out[k] = joinAbs(absNo, vb)
		}
	}
	// Normalize: drop absNo entries so Equal treats absent and absNo
	// alike.
	for k, v := range out {
		if v == absNo {
			delete(out, k)
		}
	}
	return out
}

func run(pass *analysis.Pass) (any, error) {
	graphs := pass.ResultOf[cfg.Analyzer].(*cfg.Result)
	for _, g := range graphs.All {
		checkGraph(pass, g)
	}
	checkCopylocks(pass)
	return nil, nil
}

// checkGraph runs the held/deferred fixpoint over one function and
// reports pairing and blocking violations.
func checkGraph(pass *analysis.Pass, g *cfg.Graph) {
	if fd, ok := g.Fn.(*ast.FuncDecl); ok {
		switch fd.Name.Name {
		case "Lock", "Unlock", "RLock", "RUnlock", "TryLock":
			return // lock-wrapper methods hold or release by design
		}
	}
	a := &checker{pass: pass, g: g, lockPos: map[lockKey]token.Pos{}}
	// Quick reject: no Lock calls anywhere in the function.
	found := false
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Inspect(n, func(sub ast.Node) bool {
				if call, ok := sub.(*ast.CallExpr); ok {
					if _, _, op := a.lockOp(call); op == opLock {
						found = true
					}
				}
				return !found
			})
		}
	}
	if !found {
		return
	}

	empty := state{held: map[lockKey]abs{}, def: map[lockKey]abs{}}
	in := cfg.Forward(g, cfg.Problem[state]{
		Entry: empty,
		Transfer: func(b *cfg.Block, in state) state {
			return a.transferBlock(b, in, false)
		},
		Join: func(x, y state) state {
			return state{held: joinAbsMap(x.held, y.held), def: joinAbsMap(x.def, y.def)}
		},
		Equal: func(x, y state) bool {
			return equalAbsMap(x.held, y.held) && equalAbsMap(x.def, y.def)
		},
	})

	// Reporting pass: replay the stable states over reachable blocks.
	for _, b := range reachableBlocks(g) {
		a.transferBlock(b, in[b], true)
	}

	// Exit check: anything still held (and without a deferred release)
	// escaped a path to return.
	exit := in[g.Exit]
	var keys []lockKey
	for k, h := range exit.held {
		if h == absNo || exit.def[k] != absNo {
			continue // released, or a defer will release it
		}
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].lockName() < keys[j].lockName() })
	for _, k := range keys {
		pos := a.lockPos[k]
		switch exit.held[k] {
		case absYes:
			pass.Reportf(pos, "%s() is never released in %s: add %s() or defer it",
				k.lockName(), g.Name, k.unlockName())
		case absMixed:
			pass.Reportf(pos, "%s() is released on some paths through %s but not others (early return without %s()?): use defer %s()",
				k.lockName(), g.Name, k.unlockName(), k.unlockName())
		}
	}
}

func reachableBlocks(g *cfg.Graph) []*cfg.Block {
	seen := map[*cfg.Block]bool{}
	var order []*cfg.Block
	var walk func(b *cfg.Block)
	walk = func(b *cfg.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		order = append(order, b)
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry())
	sort.Slice(order, func(i, j int) bool { return order[i].Index < order[j].Index })
	return order
}

type lockOpKind int

const (
	opNone lockOpKind = iota
	opLock
	opUnlock
)

type checker struct {
	pass    *analysis.Pass
	g       *cfg.Graph
	lockPos map[lockKey]token.Pos
}

// lockOp classifies a call as Lock/Unlock (incl. the R variants) on a
// sync.Mutex or sync.RWMutex and returns the mutex key.
func (c *checker) lockOp(call *ast.CallExpr) (key lockKey, pos token.Pos, op lockOpKind) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return key, 0, opNone
	}
	var read bool
	switch sel.Sel.Name {
	case "Lock":
		op = opLock
	case "RLock":
		op, read = opLock, true
	case "Unlock":
		op = opUnlock
	case "RUnlock":
		op, read = opUnlock, true
	default:
		return key, 0, opNone
	}
	recv := c.pass.TypesInfo.Types[sel.X].Type
	if recv == nil || !isSyncMutex(recv) {
		return key, 0, opNone
	}
	return lockKey{expr: types.ExprString(sel.X), read: read}, call.Pos(), op
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// transferBlock interprets one block's nodes over st. With report set it
// emits diagnostics (used only after the fixpoint, on stable states).
func (c *checker) transferBlock(b *cfg.Block, st state, report bool) state {
	cur := st.clone()
	for _, n := range b.Nodes {
		cur = c.node(n, cur, report)
	}
	return cur
}

func (c *checker) node(n ast.Node, st state, report bool) state {
	switch n := n.(type) {
	case *ast.DeferStmt:
		return c.deferStmt(n, st)
	case *ast.SelectStmt:
		if !hasDefaultClause(n) && report {
			c.reportBlocking(n.Pos(), st, "select with no default case")
		}
		return st
	}
	// A bare channel-typed node is a range-loop header (`for range ch`):
	// a blocking receive.
	if e, ok := n.(ast.Expr); ok && report {
		if t := c.pass.TypesInfo.Types[e].Type; t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				c.reportBlocking(e.Pos(), st, "range over channel")
			}
		}
	}
	// A select comm statement's channel op is the select's own blocking
	// point, already reported on the SelectStmt node.
	isComm := c.g.SelectComms[n]
	cfg.Inspect(n, func(sub ast.Node) bool {
		switch sub := sub.(type) {
		case *ast.DeferStmt:
			st = c.deferStmt(sub, st)
			return false
		case *ast.SendStmt:
			if report && !isComm {
				c.reportBlocking(sub.Arrow, st, "channel send")
			}
		case *ast.UnaryExpr:
			if sub.Op == token.ARROW && report && !isComm {
				c.reportBlocking(sub.OpPos, st, "channel receive")
			}
		case *ast.CallExpr:
			if key, pos, op := c.lockOp(sub); op != opNone {
				held := make(map[lockKey]abs, len(st.held))
				for k, v := range st.held {
					held[k] = v
				}
				if op == opLock {
					held[key] = absYes
					if _, ok := c.lockPos[key]; !ok {
						c.lockPos[key] = pos
					}
				} else {
					delete(held, key)
				}
				st = state{held: held, def: st.def}
				return true
			}
			if report {
				if desc := blockingCall(c.pass, sub); desc != "" {
					c.reportBlocking(sub.Pos(), st, desc)
				}
			}
		}
		return true
	})
	return st
}

// deferStmt registers deferred unlocks: `defer mu.Unlock()` directly, or
// any unlock inside a deferred function literal.
func (c *checker) deferStmt(d *ast.DeferStmt, st state) state {
	reg := func(st state, key lockKey) state {
		def := make(map[lockKey]abs, len(st.def))
		for k, v := range st.def {
			def[k] = v
		}
		def[key] = absYes
		return state{held: st.held, def: def}
	}
	if key, _, op := c.lockOp(d.Call); op == opUnlock {
		return reg(st, key)
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(sub ast.Node) bool {
			if call, ok := sub.(*ast.CallExpr); ok {
				if key, _, op := c.lockOp(call); op == opUnlock {
					st = reg(st, key)
				}
			}
			return true
		})
	}
	return st
}

func (c *checker) reportBlocking(pos token.Pos, st state, what string) {
	var held []string
	for k, v := range st.held {
		if v == absYes {
			held = append(held, k.expr)
		}
	}
	if len(held) == 0 {
		return
	}
	sort.Strings(held)
	c.pass.Reportf(pos, "%s while holding %s: blocking operations inside a critical section risk deadlock; unlock first or move the wait out",
		what, strings.Join(held, ", "))
}

func hasDefaultClause(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that block on the outside world:
// (*os.File).Sync and HTTP round-trips.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	name := sel.Sel.Name
	// Package-level net/http round-trips.
	if pkg, ok := sel.X.(*ast.Ident); ok {
		if obj, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName); ok {
			if obj.Imported().Path() == "net/http" {
				switch name {
				case "Get", "Post", "PostForm", "Head":
					return "HTTP round-trip (http." + name + ")"
				}
				return ""
			}
		}
	}
	recv := pass.TypesInfo.Types[sel.X].Type
	if recv == nil {
		return ""
	}
	if p, ok := recv.Underlying().(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	path, tname := named.Obj().Pkg().Path(), named.Obj().Name()
	switch {
	case path == "os" && tname == "File" && name == "Sync":
		return "(*os.File).Sync"
	case path == "net/http" && tname == "Client" && (name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
		return "HTTP round-trip ((*http.Client)." + name + ")"
	}
	return ""
}

// checkCopylocks reports function declarations and literals whose
// results carry a lock by value.
func checkCopylocks(pass *analysis.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var results *ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				results = n.Type.Results
			case *ast.FuncLit:
				results = n.Type.Results
			}
			if results == nil {
				return true
			}
			for _, field := range results.List {
				t := pass.TypesInfo.Types[field.Type].Type
				if t == nil {
					continue
				}
				if lock := lockIn(t); lock != "" {
					pass.Reportf(field.Type.Pos(), "result passes a value containing %s by value: use a pointer", lock)
				}
			}
			return true
		})
	}
}

// lockIn walks value-embedded types (structs, arrays, named) for
// sync.Mutex/RWMutex/WaitGroup and names the first one found ("" when
// none). Pointers, slices, maps, channels and interfaces carry
// references, not copies, and stop the walk.
func lockIn(t types.Type) string {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			switch obj.Name() {
			case "Mutex", "RWMutex", "WaitGroup":
				return "sync." + obj.Name()
			}
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if s := lockIn(u.Field(i).Type()); s != "" {
				return s
			}
		}
	case *types.Array:
		return lockIn(u.Elem())
	}
	return ""
}
