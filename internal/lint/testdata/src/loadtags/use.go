package loadtags

// Use calls whichever kernel the build selected.
func Use() int { return kernel() }
