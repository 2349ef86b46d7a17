//go:build !race

package tensor

import "testing"

// The kernel paths an amd64 build without the race detector can run: the
// Go kernels, the SSE2 ones, the AVX2 ones when CPUID reports AVX2 and the
// AVX-512 ones when it reports AVX512F.

func axpy4Paths(t testing.TB) []axpy4Path {
	paths := []axpy4Path{{"go", axpy4Go}, {"sse2", axpy4SSE2}}
	if !useAVX2 {
		t.Log("AVX2 kernels not run: CPUID reports no AVX2")
		return paths
	}
	paths = append(paths, axpy4Path{"avx2", axpy4AVX2})
	if !useAVX512 {
		t.Log("AVX-512 kernels not run: CPUID reports no AVX512F")
		return paths
	}
	return append(paths, axpy4Path{"avx512", axpy4AVX512})
}

func axpy4x2Paths(t testing.TB) []axpy4x2Path {
	paths := []axpy4x2Path{{"dispatch", axpy4x2}}
	if !useAVX2 {
		t.Log("AVX2 kernels not run: CPUID reports no AVX2")
		return paths
	}
	paths = append(paths, axpy4x2Path{"avx2", axpy4x2AVX2})
	if !useAVX512 {
		t.Log("AVX-512 kernels not run: CPUID reports no AVX512F")
		return paths
	}
	return append(paths, axpy4x2Path{"avx512", axpy4x2AVX512})
}

func maxPaths() []maxPath { return []maxPath{{"go", maxIntoGo}, {"sse2", maxInto}} }

func reluPaths() []reluPath { return []reluPath{{"go", reluGo}, {"sse2", reluSSE2}} }
