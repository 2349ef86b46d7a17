package lint

// Goleak reports `go` statements that spawn a goroutine able to block
// forever on a channel operation (or a lost sync.WaitGroup/Cond wake-up)
// with no cancellation or close path — the bug class behind darnetd's
// original leaked signal goroutine. The decision uses the interprocedural
// summaries: a spawned function blocks forever when it (or any function it
// synchronously calls) contains a bare send, a receive without a comma-ok,
// a single-case select, select{}, or a sync Wait, and no escape shape
// (multi-case select, default case, comma-ok receive, range-over-channel)
// guards that site. A //lint:ignore goleak on a blocking site itself
// justifies that site for every goroutine that reaches it; one on the `go`
// statement suppresses that statement's finding.
//
// Blocking network reads are deliberately out of scope: they are unblocked
// by closing the connection, which the conn-tracker shutdown pattern
// already enforces.
var Goleak = &Analyzer{
	Name: "goleak",
	Doc:  "a spawned goroutine must not be able to block forever without a cancellation or close path",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	for _, n := range pass.Nodes() {
		for _, gs := range n.GoSites {
			for _, t := range gs.Targets {
				s := t.Summary()
				if !s.BlocksForever {
					continue
				}
				site := shortLoc(pass.Fset, s.ForeverPos)
				via := ""
				if s.ForeverVia != nil {
					via = " (reached via " + pass.funcName(s.ForeverVia) + ")"
				}
				if t.Fn != nil {
					pass.Reportf(gs.Pos, "goroutine %s can block forever: %s at %s%s has no cancellation or close path", pass.funcName(t), s.ForeverWhat, site, via)
				} else {
					pass.Reportf(gs.Pos, "spawned goroutine can block forever: %s at %s%s has no cancellation or close path", s.ForeverWhat, site, via)
				}
				break // one finding per go statement
			}
		}
	}
}
