package lint

// All returns the analyzers every package is checked by on its own, in the
// order findings are conventionally reported: the intra-procedural rules
// first, then the whole-program analyzers built on the interprocedural
// engine.
func All() []*Analyzer {
	return []*Analyzer{
		Locksafe,
		Floatcmp,
		Errdrop,
		Globalrand,
		Ctxsleep,
		Shapecheck,
		Metricname,
		Goleak,
		Lockorder,
		Hotalloc,
		Ctxprop,
	}
}

// AllModule is the registry darnet-lint runs: every rule of All plus the
// analyzers registered at module scope only (shapeflow, chanlife,
// atomicmix, qbound).
func AllModule() []*Analyzer {
	return append(All(), Shapeflow, Chanlife, Atomicmix, Qbound)
}
