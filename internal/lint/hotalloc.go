package lint

// Hotalloc statically enforces what internal/telemetry's AllocsPerRun tests
// only sample: functions reachable from a //lint:hotpath root (telemetry
// counter increments, span start/stop, wire encode, tsdb insert) must not
// allocate. The forbidden constructs on the path are make/new, closures and
// goroutine spawns, pointer-to-composite and slice/map literals, allocating
// conversions, fmt calls, variadic argument packing, and interface boxing
// of non-pointer-shaped values. Amortized-growth append is deliberately
// allowed — the runtime tests own that budget.
//
// Reachability is the call graph (plain, deferred, and escaping-literal
// edges; `go` spawns are excluded, the spawn itself is the allocation). A
// call into another package whose reachable code allocates is reported at
// the call, naming the first allocation behind it. A deliberate cold branch
// on a hot path — a sampled trace retention, a panic formatting an
// impossible state — carries a //lint:ignore hotalloc directive with its
// rationale; at the allocation itself it also holds for callers in other
// packages.
var Hotalloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions reachable from a //lint:hotpath root must not allocate",
	Run:  runHotalloc,
}

func runHotalloc(pass *Pass) {
	// BFS from each root in declaration order, staying inside the package;
	// the first root to reach a function names it in the report.
	rootOf := make(map[*FuncNode]*FuncNode)
	var queue []*FuncNode
	for _, n := range pass.Nodes() {
		if n.Hotpath() {
			rootOf[n] = n
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, c := range n.Calls {
			if _, seen := rootOf[c.Callee]; !seen && c.Callee.Pkg == n.Pkg {
				rootOf[c.Callee] = rootOf[n]
				queue = append(queue, c.Callee)
			}
		}
	}

	for _, n := range pass.Nodes() {
		root, hot := rootOf[n]
		if !hot {
			continue
		}
		for _, site := range pass.IPA().allocSites(n) {
			pass.Reportf(site.Pos, "%s allocates on a hot path (//lint:hotpath root %s)", site.What, root.Name)
		}
	}
}
