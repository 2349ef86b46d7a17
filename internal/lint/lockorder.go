package lint

import (
	"go/token"
	"sort"
	"strings"
)

// Lockorder builds a lock-acquisition-order graph across the package's
// functions from the interprocedural summaries — an edge A→B means some
// goroutine acquires B (directly or inside a callee) while holding A — and
// reports cycles, the static shadow of an ABBA deadlock. Locks are
// identified at the type level ("Controller.mu", or the variable name for a
// package-level mutex), which unifies acquisitions through different
// variables of the same type: conservative in the right direction, since
// two instances locked in opposite orders by concurrent goroutines is
// exactly the deadlock being hunted. A deliberate nesting that can never
// deadlock (e.g. a leaf lock with a documented order) carries a
// //lint:ignore lockorder directive at the acquisition site.
//
// A self-edge A→A (re-acquiring a lock identity already held) is reported
// separately: for a plain sync.Mutex that is an immediate self-deadlock.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "lock acquisition order must be acyclic across the package (no ABBA deadlocks)",
	Run:  runLockorder,
}

func runLockorder(pass *Pass) {
	// Fold every function's pairs into one graph, keeping the earliest
	// position per edge for deterministic reporting.
	edges := make(map[string]map[string]token.Pos)
	addEdge := func(from, to string, pos token.Pos) {
		m := edges[from]
		if m == nil {
			m = make(map[string]token.Pos)
			edges[from] = m
		}
		if old, ok := m[to]; !ok || pos < old {
			m[to] = pos
		}
	}
	for _, n := range pass.Nodes() {
		for key, pos := range n.Summary().Pairs {
			addEdge(key[0], key[1], pos)
		}
	}

	// Fold in the order edges recorded by the packages this one imports,
	// minus those a //lint:ignore lockorder at their own site justifies. A
	// cycle is reported only when it includes a local edge, so a
	// dependency's wholly-internal cycle stays reported in that package and
	// does not duplicate into every dependent.
	ext := make(map[string]map[string]bool)
	for _, q := range pass.IPA().deps[pass.pkg] {
		for _, n := range pass.IPA().Graph.NodesOf(q) {
			for key, pos := range n.Summary().Pairs {
				if q.justified(pos, "lockorder") {
					continue
				}
				if _, local := edges[key[0]][key[1]]; local {
					continue
				}
				if ext[key[0]] == nil {
					ext[key[0]] = make(map[string]bool)
				}
				ext[key[0]][key[1]] = true
			}
		}
	}

	// Self-deadlocks first (local edges only; a dependency's self-edge is
	// its own finding).
	ids := make([]string, 0, len(edges))
	for id := range edges {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if pos, ok := edges[id][id]; ok {
			pass.Reportf(pos, "lock %s is acquired while an acquisition of %s is already held (self-deadlock for a plain Mutex)", id, id)
			delete(edges[id], id)
		}
	}

	// Cycles: every strongly connected component with more than one lock
	// contains at least one acquisition-order cycle. SCCs are computed over
	// the union graph; the report anchors at the earliest local edge.
	union := make(map[string]map[string]token.Pos, len(edges))
	for from, tos := range edges {
		union[from] = tos
	}
	for from, tos := range ext {
		m := union[from]
		if m == nil {
			m = make(map[string]token.Pos)
			union[from] = m
		}
		for to := range tos {
			if _, ok := m[to]; !ok {
				m[to] = token.NoPos
			}
		}
	}
	unionIDs := make([]string, 0, len(union))
	for id := range union {
		unionIDs = append(unionIDs, id)
	}
	sort.Strings(unionIDs)

	for _, scc := range stronglyConnected(unionIDs, union) {
		if len(scc) < 2 {
			continue
		}
		sort.Strings(scc)
		inSCC := make(map[string]bool, len(scc))
		for _, id := range scc {
			inSCC[id] = true
		}
		// Report at the earliest local edge position inside the component;
		// a component with no local edge belongs to a dependency.
		var minPos token.Pos
		var minFrom, minTo string
		crossPackage := false
		for _, from := range scc {
			for to, pos := range edges[from] {
				if !inSCC[to] {
					continue
				}
				if minPos == token.NoPos || pos < minPos {
					minPos, minFrom, minTo = pos, from, to
				}
			}
			for to := range ext[from] {
				if inSCC[to] {
					crossPackage = true
				}
			}
		}
		if minPos == token.NoPos {
			continue
		}
		via := ""
		if crossPackage {
			via = "; the reversing order is recorded in a dependency package"
		}
		pass.Reportf(minPos, "lock acquisition order cycle: %s (here %s is acquired while %s is held; elsewhere the order reverses — a potential ABBA deadlock%s)",
			strings.Join(scc, " ↔ "), minTo, minFrom, via)
	}
}

// stronglyConnected runs Tarjan's algorithm over the lock graph with
// deterministic (sorted) visit order, returning the components.
func stronglyConnected(ids []string, edges map[string]map[string]token.Pos) [][]string {
	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	var stack []string
	var sccs [][]string
	next := 0

	// Include edge targets that never appear as sources.
	all := append([]string(nil), ids...)
	seen := make(map[string]bool, len(ids))
	for _, id := range ids {
		seen[id] = true
	}
	for _, from := range ids {
		tos := make([]string, 0, len(edges[from]))
		for to := range edges[from] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, to := range tos {
			if !seen[to] {
				seen[to] = true
				all = append(all, to)
			}
		}
	}
	sort.Strings(all)

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		tos := make([]string, 0, len(edges[v]))
		for to := range edges[v] {
			tos = append(tos, to)
		}
		sort.Strings(tos)
		for _, w := range tos {
			if _, visited := index[w]; !visited {
				strongconnect(w)
				low[v] = min(low[v], low[w])
			} else if onStack[w] {
				low[v] = min(low[v], index[w])
			}
		}
		if low[v] == index[v] {
			var scc []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			sccs = append(sccs, scc)
		}
	}
	for _, v := range all {
		if _, visited := index[v]; !visited {
			strongconnect(v)
		}
	}
	return sccs
}
