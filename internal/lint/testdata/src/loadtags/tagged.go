//go:build darnetlintfixture

package loadtags

func kernel() int { return 2 }
