//go:build !amd64 || race

package tensor

import "testing"

// Builds without the assembly run the Go kernels only.

func axpy4Paths(testing.TB) []axpy4Path { return []axpy4Path{{"go", axpy4Go}} }

func axpy4x2Paths(testing.TB) []axpy4x2Path { return []axpy4x2Path{{"go", axpy4x2}} }

func maxPaths() []maxPath { return []maxPath{{"go", maxIntoGo}} }

func reluPaths() []reluPath { return []reluPath{{"go", reluGo}} }
