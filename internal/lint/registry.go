package lint

// All returns the registry: every analyzer, in the order findings are
// conventionally reported — the intra-procedural rules first, then the
// whole-program analyzers built on the interprocedural engine.
func All() []*Analyzer {
	return []*Analyzer{
		Locksafe,
		Floatcmp,
		Errdrop,
		Globalrand,
		Ctxsleep,
		Metricname,
		Goleak,
		Lockorder,
		Hotalloc,
		Ctxprop,
		Shapeflow,
		Chanlife,
		Atomicmix,
		Qbound,
	}
}
