//go:build !darnetlintfixture

package loadtags

// kernel is the portable implementation; tagged.go replaces it only in
// builds with the darnetlintfixture tag, which the loader's default build
// context never sets.
func kernel() int { return 1 }
