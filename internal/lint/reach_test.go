package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// The oracles below are the four graph walks flowGraph.reaches replaced —
// qbound's dominatedByCheck, trimmedAfter and releaseStates and chanlife's
// canReachExitWithoutRecv — plus the slotSettled that read releaseStates and
// the two block predicates they called, kept as they were so the query can
// be checked against them. Only the names changed, and the per-edge and
// per-block tests arrive as predicates, so one comparison drives every
// barrier.

// oracleDominatedByCheck: DFS from entry that refuses to cross check edges
// must fail to reach blk.
func oracleDominatedByCheck(fg *flowGraph, blk *block, check func(ast.Expr) bool) bool {
	if blk == fg.entry {
		return false
	}
	seen := map[*block]bool{}
	var walk func(b *block) bool
	walk = func(b *block) bool {
		if b == blk {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		for _, e := range b.succs {
			if check(e.cond) {
				continue
			}
			if walk(e.to) {
				return true
			}
		}
		return false
	}
	return !walk(fg.entry)
}

// oracleTrimmedAfter: every path from blk to exit passes a check edge.
// Greatest fixpoint: assume yes, strip blocks with an unchecked path out.
func oracleTrimmedAfter(fg *flowGraph, blk *block, check func(ast.Expr) bool) bool {
	ok := make([]bool, len(fg.blocks))
	for i := range ok {
		ok[i] = true
	}
	ok[fg.exit.index] = false
	for changed := true; changed; {
		changed = false
		for _, b := range fg.blocks {
			if !ok[b.index] || b == fg.exit {
				continue
			}
			holds := len(b.succs) > 0
			for _, e := range b.succs {
				if check(e.cond) {
					continue
				}
				if !ok[e.to.index] {
					holds = false
					break
				}
			}
			if !holds {
				ok[b.index] = false
				changed = true
			}
		}
	}
	return ok[blk.index]
}

// oracleReleaseStates: per block, whether every path from it to exit
// passes a settling block. Greatest fixpoint over the CFG.
func oracleReleaseStates(fg *flowGraph, settling func(*block) bool) []bool {
	settles := make([]bool, len(fg.blocks))
	for _, b := range fg.blocks {
		settles[b.index] = settling(b)
	}
	ok := make([]bool, len(fg.blocks))
	for i := range ok {
		ok[i] = true
	}
	ok[fg.exit.index] = false
	for changed := true; changed; {
		changed = false
		for _, b := range fg.blocks {
			if !ok[b.index] || b == fg.exit || settles[b.index] {
				continue
			}
			holds := len(b.succs) > 0
			for _, e := range b.succs {
				if !ok[e.to.index] {
					holds = false
					break
				}
			}
			if !holds {
				ok[b.index] = false
				changed = true
			}
		}
	}
	return ok
}

// oracleSlotSettled is slotSettled over oracleReleaseStates' answers.
func oracleSlotSettled(info *types.Info, fg *flowGraph, relOK []bool, blk *block, nodeIdx int, g *growSite) bool {
	if oracleBlockSettles(info, blk.nodes[nodeIdx+1:], g.bf) {
		return true
	}
	for _, e := range blk.succs {
		if g.kind == growCAS && e.cond != nil {
			if oracleCondContains(e.cond, g.node) && !e.sense {
				continue
			}
		}
		if e.to != fg.exit && !relOK[e.to.index] {
			return false
		}
		if e.to == fg.exit {
			return false
		}
	}
	return len(blk.succs) > 0
}

func oracleCondContains(cond ast.Expr, n ast.Node) bool {
	found := false
	ast.Inspect(cond, func(sub ast.Node) bool {
		if sub == n {
			found = true
		}
		return !found
	})
	return found
}

func oracleBlockSettles(info *types.Info, nodes []ast.Node, bf *boundedField) bool {
	for _, n := range nodes {
		found := false
		ast.Inspect(n, func(sub ast.Node) bool {
			switch x := sub.(type) {
			case *ast.FuncLit:
				return false
			case *ast.SendStmt:
				found = true
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok && isBoundedSelector(info, sel.X, bf) {
					switch sel.Sel.Name {
					case "Add":
						if len(x.Args) == 1 {
							if v, ok := constIntValue(info, x.Args[0]); ok && v < 0 {
								found = true
							}
						}
					case "CompareAndSwap":
						if len(x.Args) == 2 && isDecrementOf(info, x.Args[1], x.Args[0]) {
							found = true
						}
					}
				}
			case *ast.IncDecStmt:
				if x.Tok == token.DEC && isBoundedSelector(info, x.X, bf) {
					found = true
				}
			case *ast.AssignStmt:
				if x.Tok == token.SUB_ASSIGN && len(x.Lhs) == 1 && isBoundedSelector(info, x.Lhs[0], bf) {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// oracleCanReachExitWithoutRecv: some path from just after the spawn point
// reaches the exit block without passing a block that receives from v.
func oracleCanReachExitWithoutRecv(info *types.Info, fg *flowGraph, start *block, fromIdx int, v *types.Var) bool {
	if oracleBlockHasRecv(info, start.nodes[fromIdx:], v) {
		return false
	}
	seen := map[*block]bool{}
	var walk func(b *block) bool
	walk = func(b *block) bool {
		if b == fg.exit {
			return true
		}
		if seen[b] {
			return false
		}
		seen[b] = true
		if oracleBlockHasRecv(info, b.nodes, v) {
			return false
		}
		for _, e := range b.succs {
			if walk(e.to) {
				return true
			}
		}
		return false
	}
	for _, e := range start.succs {
		if walk(e.to) {
			return true
		}
	}
	return false
}

func oracleBlockHasRecv(info *types.Info, nodes []ast.Node, v *types.Var) bool {
	for _, n := range nodes {
		has := false
		ast.Inspect(n, func(sub ast.Node) bool {
			switch x := sub.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if x.Op == token.ARROW {
					if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
						if uv, _ := info.Uses[id].(*types.Var); uv == v {
							has = true
						}
					}
				}
			case *ast.RangeStmt:
				if id, ok := ast.Unparen(x.X).(*ast.Ident); ok {
					if uv, _ := info.Uses[id].(*types.Var); uv == v {
						has = true
					}
				}
			}
			return !has
		})
		if has {
			return true
		}
	}
	return false
}

// reachShapes holds the control shapes the corpus below may lack: goto,
// labelled break and continue, select (with and without default, and the
// empty select), panic, switch fallthrough, for {} and a CAS admission.
const reachShapes = `package shapes

import "sync/atomic"

type queue struct {
	n     int
	depth atomic.Int64
	buf   []int
	seen  map[int]bool
	out   chan int
}

func gotoLoop(q *queue, ch chan int) int {
	i := 0
retry:
	if q.n >= 8 {
		<-ch
		goto retry
	}
	q.n++
	if i < 3 {
		i++
		goto retry
	}
	goto done
done:
	return i
}

func labelled(q *queue, ch chan int, xs [][]int) {
outer:
	for _, row := range xs {
	inner:
		for _, x := range row {
			switch {
			case x < 0:
				continue outer
			case x == 0:
				break inner
			case len(q.buf) > 10:
				break outer
			}
			q.buf = append(q.buf, x)
		}
	}
	ch <- len(q.buf)
}

func selects(q *queue, ch, stop chan int) {
	for {
		select {
		case v := <-ch:
			if d := q.n; d < 4 {
				q.n += v
			}
		case <-stop:
			return
		default:
			q.n--
		}
	}
}

func admit(q *queue, cap64 int64, v int) bool {
	for {
		d := q.depth.Load()
		if d >= cap64 {
			return false
		}
		if q.depth.CompareAndSwap(d, d+1) {
			break
		}
	}
	if v < 0 {
		q.depth.Add(-1)
		return false
	}
	q.out <- v
	return true
}

func panics(q *queue, ch chan int) {
	if q.n > 100 {
		panic("full")
	}
	q.n++
	go func() { ch <- 1 }()
	if q.n == 3 {
		return
	}
	<-ch
}

func forever(q *queue, ch chan int) {
	for {
		q.seen[q.n] = true
		if len(q.seen) > 5 {
			break
		}
	}
	for range ch {
		q.n--
	}
	switch {
	case q.n < 0:
		fallthrough
	case q.n > 9:
		q.n = 0
	default:
	}
	for {
	}
}

func blocked(stop chan int) {
loop:
	select {
	case <-stop:
		break loop
	}
	select {}
}
`

// TestReachesMatchesWalks checks the one path query against the walks it
// replaced on the graph of every function (declared or literal) in the
// lint fixtures, internal/stream, internal/collect, internal/durable and
// the shapes above. Barriers are check edges and settling blocks for every
// counter, slice or map field a function selects, and receive blocks for
// every local channel it names; the queries start from every block.
func TestReachesMatchesWalks(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	shapes := t.TempDir()
	if err := os.WriteFile(filepath.Join(shapes, "shapes.go"), []byte(reachShapes), 0o644); err != nil {
		t.Fatalf("write shapes: %v", err)
	}
	dirs := [][2]string{{shapes, "darnet/internal/lintfixture/shapes"}}
	for _, name := range []string{"atomicmix", "chanlife", "ctxprop", "goleak", "hotalloc", "lockorder", "locksafe", "qbound", "shapeflow"} {
		dirs = append(dirs, [2]string{filepath.Join("testdata", "src", name), "darnet/internal/lintfixture/" + name})
	}
	for _, name := range []string{"stream", "collect", "durable"} {
		dirs = append(dirs, [2]string{filepath.Join("..", name), "darnet/internal/" + name})
	}

	// seen counts each comparison's answers, so a corpus that never makes
	// a walk say both yes and no fails instead of passing vacuously.
	seen := map[string][2]int{}
	tally := func(name string, v bool) {
		c := seen[name]
		if v {
			c[1]++
		} else {
			c[0]++
		}
		seen[name] = c
	}
	for _, d := range dirs {
		pkg, err := loader.LoadDir(d[0], d[1])
		if err != nil {
			t.Fatalf("load %s: %v", d[0], err)
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch x := n.(type) {
				case *ast.FuncDecl:
					body = x.Body
				case *ast.FuncLit:
					body = x.Body
				}
				if body != nil {
					where := pkg.Fset.Position(n.Pos()).String()
					compareFunc(t, where, pkg.Info, buildCFG(body), body, tally)
				}
				return true
			})
		}
	}
	for _, name := range []string{"dominated", "trimmed", "released", "slotSettled", "exitWithoutRecv"} {
		c := seen[name]
		if c[0] == 0 || c[1] == 0 {
			t.Errorf("%s: oracle answered no %d times and yes %d times; the corpus must produce both", name, c[0], c[1])
		}
		t.Logf("%s: %d comparisons, %d answered yes", name, c[0]+c[1], c[1])
	}
}

// compareFunc runs every comparison over one function's graph.
func compareFunc(t *testing.T, where string, info *types.Info, fg *flowGraph, body *ast.BlockStmt, tally func(string, bool)) {
	t.Helper()
	var fields []*boundedField
	var chans []*types.Var
	have := map[types.Object]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			if s, ok := info.Selections[x]; ok && s.Kind() == types.FieldVal && !have[s.Obj()] {
				if kind, ok := boundedKindOf(s.Obj().Type()); ok {
					have[s.Obj()] = true
					fields = append(fields, &boundedField{field: s.Obj().(*types.Var), kind: kind})
				}
			}
		case *ast.Ident:
			if v, ok := info.ObjectOf(x).(*types.Var); ok && isChanVar(v) && !v.IsField() && !have[v] {
				have[v] = true
				chans = append(chans, v)
			}
		}
		return true
	})

	defs := localDefs(info, fg)
	for _, bf := range fields {
		checked := map[ast.Expr]bool{}
		check := func(cond ast.Expr) bool {
			if cond == nil {
				return false
			}
			v, ok := checked[cond]
			if !ok {
				v = condChecksField(info, defs, cond, bf)
				checked[cond] = v
			}
			return v
		}
		cut := func(e edge) bool { return check(e.cond) }
		oracleSettles := func(b *block) bool { return oracleBlockSettles(info, b.nodes, bf) }
		settles := func(b *block) bool { return blockSettles(info, b.nodes, bf) }
		relOK := oracleReleaseStates(fg, oracleSettles)
		for _, blk := range fg.blocks {
			want := oracleDominatedByCheck(fg, blk, check)
			if got := !fg.reaches(fg.entry, func(b *block) bool { return b == blk }, cut, nil); got != want {
				t.Errorf("%s: %s block %d: dominated by check: query %v, walk %v", where, bf.field.Name(), blk.index, got, want)
			}
			tally("dominated", want)
			want = oracleTrimmedAfter(fg, blk, check)
			if got := !fg.reaches(blk, fg.ends, cut, nil); got != want {
				t.Errorf("%s: %s block %d: trimmed after: query %v, fixpoint %v", where, bf.field.Name(), blk.index, got, want)
			}
			tally("trimmed", want)
			if got := !fg.reaches(blk, fg.ends, nil, settles); got != relOK[blk.index] {
				t.Errorf("%s: %s block %d: released: query %v, fixpoint %v", where, bf.field.Name(), blk.index, got, relOK[blk.index])
			}
			tally("released", relOK[blk.index])
			for i, n := range blk.nodes {
				for _, kind := range []growKind{growCAS, growAdd} {
					g := &growSite{node: n, kind: kind, bf: bf}
					want := oracleSlotSettled(info, fg, relOK, blk, i, g)
					if got := slotSettled(info, fg, blk, i, g); got != want {
						t.Errorf("%s: %s block %d node %d kind %d: slot settled: query %v, fixpoint %v", where, bf.field.Name(), blk.index, i, kind, got, want)
					}
					tally("slotSettled", want)
				}
			}
		}
	}
	w := &chanWalker{fg: fg, info: info}
	for _, v := range chans {
		for _, blk := range fg.blocks {
			for _, from := range []int{0, len(blk.nodes)} {
				want := oracleCanReachExitWithoutRecv(info, fg, blk, from, v)
				if got := w.canReachExitWithoutRecv(blk, from, v); got != want {
					t.Errorf("%s: %s block %d from node %d: exit without receive: query %v, walk %v", where, v.Name(), blk.index, from, got, want)
				}
				tally("exitWithoutRecv", want)
			}
		}
	}
}

// TestReachesDeadEnd pins the corner the old walks agreed on for a block
// with no successors (buildCFG makes none besides exit, so this graph
// is built by hand): it ends a path, so a slot is not settled nor a grow
// trimmed there, and chanlife's walk, which looks for exit itself, does not
// reach exit through it.
//
//	entry ─c→ a → exit
//	  └─────→ dead ←── pre
func TestReachesDeadEnd(t *testing.T) {
	fg := &flowGraph{}
	for i := 0; i < 5; i++ {
		fg.blocks = append(fg.blocks, &block{index: i, nodes: []ast.Node{&ast.EmptyStmt{}}})
	}
	entry, exit, a, dead, pre := fg.blocks[0], fg.blocks[1], fg.blocks[2], fg.blocks[3], fg.blocks[4]
	fg.entry, fg.exit = entry, exit
	exit.nodes = nil
	cond := ast.NewIdent("c")
	entry.succs = []edge{{to: a, cond: cond, sense: true}, {to: dead}}
	a.succs = []edge{{to: exit}}
	pre.succs = []edge{{to: dead}}

	info := &types.Info{}
	v := types.NewVar(token.NoPos, nil, "ch", types.NewChan(types.SendRecv, types.Typ[types.Int]))
	w := &chanWalker{fg: fg, info: info}
	bf := &boundedField{}
	check := func(e ast.Expr) bool { return e == cond }
	cut := func(e edge) bool { return check(e.cond) }
	noSettle := func(*block) bool { return false }
	relOK := oracleReleaseStates(fg, noSettle)
	for _, blk := range fg.blocks {
		if want, got := oracleTrimmedAfter(fg, blk, check), !fg.reaches(blk, fg.ends, cut, nil); got != want {
			t.Errorf("block %d: trimmed after: query %v, fixpoint %v", blk.index, got, want)
		}
		if got := !fg.reaches(blk, fg.ends, nil, noSettle); got != relOK[blk.index] {
			t.Errorf("block %d: released: query %v, fixpoint %v", blk.index, got, relOK[blk.index])
		}
		if blk == exit {
			continue
		}
		g := &growSite{node: blk.nodes[0], kind: growCAS, bf: bf}
		if want, got := oracleSlotSettled(info, fg, relOK, blk, 0, g), slotSettled(info, fg, blk, 0, g); got != want {
			t.Errorf("block %d: slot settled: query %v, fixpoint %v", blk.index, got, want)
		}
		if want, got := oracleCanReachExitWithoutRecv(info, fg, blk, 0, v), w.canReachExitWithoutRecv(blk, 0, v); got != want {
			t.Errorf("block %d: exit without receive: query %v, walk %v", blk.index, got, want)
		}
	}
	if oracleTrimmedAfter(fg, entry, check) || relOK[dead.index] || oracleSlotSettled(info, fg, relOK, dead, 0, &growSite{node: dead.nodes[0], kind: growCAS, bf: bf}) {
		t.Errorf("a path into a dead end must count as neither trimmed nor settled")
	}
	if oracleCanReachExitWithoutRecv(info, fg, pre, 0, v) || !oracleCanReachExitWithoutRecv(info, fg, entry, 0, v) {
		t.Errorf("only entry's path through a reaches exit")
	}
}
