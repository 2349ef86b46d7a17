package rnn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"darnet/internal/nn"
	"darnet/internal/tensor"
)

// randWindow fills a (T, in) tensor with N(0,1) samples, zeroing a few
// entries so the sparse-skip branch in preact is exercised too.
func randWindow(rng *rand.Rand, T, in int) *tensor.Tensor {
	w := tensor.New(T, in)
	d := w.Data()
	for i := range d {
		if rng.Intn(8) == 0 {
			continue // leave exact zero
		}
		d[i] = rng.NormFloat64()
	}
	return w
}

// preactNaive is the gate pre-activation loop LSTMCell ran before the
// blocked kernel, kept as the oracle: z = b + x·Wx + h·Wh one weight row at
// a time, skipping zero inputs.
func preactNaive(c *LSTMCell, xt, h, z []float64) {
	G := 4 * c.hidden
	copy(z, c.b.Value.Data())
	for _, part := range []struct{ v, w []float64 }{{xt, c.wx.Value.Data()}, {h, c.wh.Value.Data()}} {
		for k, xv := range part.v {
			if xv == 0 {
				continue
			}
			for j, wv := range part.w[k*G : (k+1)*G] {
				z[j] += xv * wv
			}
		}
	}
}

func TestPreactKnownValues(t *testing.T) {
	// One input, one hidden unit: z = b + x·wx + h·wh per gate.
	c := NewLSTMCell("c", rand.New(rand.NewSource(1)), 1, 1)
	copy(c.wx.Value.Data(), []float64{1, 2, 3, 4})
	copy(c.wh.Value.Data(), []float64{-1, 0.5, 0, 2})
	copy(c.b.Value.Data(), []float64{0.25, 1, 0, -0.5})
	z := make([]float64, 4)
	c.preact([]float64{2}, []float64{4}, z)
	want := []float64{0.25 + 2 - 4, 1 + 4 + 2, 6, -0.5 + 8 + 8}
	for j, w := range want {
		if z[j] != w {
			t.Fatalf("preact = %v, want %v", z, want)
		}
	}
}

// TestPreactMatchesOracle covers input and hidden widths that are and are
// not multiples of the kernel's four-row block, with exact-zero inputs; the
// blocked kernel keeps the addition order, so it matches the oracle well
// inside the 1e-12 bound.
func TestPreactMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		in, hidden := 1+rng.Intn(14), 1+rng.Intn(9)
		c := NewLSTMCell("c", rng, in, hidden)
		for i := range c.b.Value.Data() {
			c.b.Value.Data()[i] = rng.NormFloat64()
		}
		xt, h := randWindow(rng, 1, in).Data(), randWindow(rng, 1, hidden).Data()
		got, want := make([]float64, 4*hidden), make([]float64, 4*hidden)
		c.preact(xt, h, got)
		preactNaive(c, xt, h, want)
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("trial %d (in %d, hidden %d): z[%d] = %v, oracle %v", trial, in, hidden, j, got[j], want[j])
			}
		}
	}
}

// TestInferMatchesForward holds Infer to the training forward pass on
// bidirectional and unidirectional stacks; both run the same kernels in the
// same order, so the probabilities agree bit for bit, which is tighter than
// the 1e-12 the inference split promises.
func TestInferMatchesForward(t *testing.T) {
	for _, uni := range []bool{false, true} {
		t.Run(fmt.Sprintf("unidirectional=%v", uni), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			for trial := 0; trial < 8; trial++ {
				c, err := NewClassifier("c", rng, Config{
					Input: 1 + rng.Intn(14), Hidden: 2 + rng.Intn(7), Layers: 1 + rng.Intn(3),
					Classes: 2 + rng.Intn(3), Unidirectional: uni,
				})
				if err != nil {
					t.Fatal(err)
				}
				ws, err := c.NewWorkspace(12)
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 3; s++ {
					seq := randWindow(rng, 1+rng.Intn(12), c.layers[0].in())
					logits, _, err := c.forward(seq)
					if err != nil {
						t.Fatal(err)
					}
					want, err := nn.Softmax(logits)
					if err != nil {
						t.Fatal(err)
					}
					got, err := c.Infer(ws, seq)
					if err != nil {
						t.Fatal(err)
					}
					for j, v := range want.Row(0) {
						if math.Float64bits(got[j]) != math.Float64bits(v) {
							t.Fatalf("trial %d: Infer %v, forward %v", trial, got, want.Row(0))
						}
					}
				}
			}
		})
	}
}

func TestInferWorkspaceErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, _ := NewClassifier("a", rng, Config{Input: 3, Hidden: 4, Layers: 1, Classes: 2})
	b, _ := NewClassifier("b", rng, Config{Input: 3, Hidden: 4, Layers: 1, Classes: 2})
	ws, err := a.NewWorkspace(5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Infer(ws, randWindow(rng, 5, 3)); err == nil {
		t.Fatal("expected an error for a foreign workspace")
	}
	if _, err := a.Infer(ws, randWindow(rng, 6, 3)); err == nil {
		t.Fatal("expected an error for a sequence longer than the workspace")
	}
	if _, err := a.Infer(ws, randWindow(rng, 5, 4)); err == nil {
		t.Fatal("expected an error for the wrong feature width")
	}
	if _, err := a.NewWorkspace(0); err == nil {
		t.Fatal("expected an error for an empty workspace")
	}
	// The pooled entry points build a larger workspace when they need one.
	if _, err := a.PredictProbs(randWindow(rng, 9, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.PredictProbs(tensor.New(3)); err == nil {
		t.Fatal("expected an error for a 1-D sequence")
	}
}

func TestInferZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c, err := NewClassifier("c", rng, Config{Input: 13, Hidden: 16, Layers: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	ws, err := c.NewWorkspace(20)
	if err != nil {
		t.Fatal(err)
	}
	seq := randWindow(rng, 20, 13)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := c.Infer(ws, seq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Infer on a warm workspace allocates %v times per call, want 0", allocs)
	}
}

// TestConcurrentPredictProbs shares one classifier across goroutines
// through the pooled PredictProbs; every result must equal the serial one bit
// for bit, and under -race nothing shared may be written.
func TestConcurrentPredictProbs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c, err := NewClassifier("c", rng, Config{Input: 5, Hidden: 6, Layers: 2, Classes: 3})
	if err != nil {
		t.Fatal(err)
	}
	seqs := make([]*tensor.Tensor, 6)
	want := make([][]float64, len(seqs))
	for i := range seqs {
		seqs[i] = randWindow(rng, 4+i, 5)
		if want[i], err = c.PredictProbs(seqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 30; iter++ {
				i := (g + iter) % len(seqs)
				got, err := c.PredictProbs(seqs[i])
				if err != nil {
					errs <- err.Error()
					return
				}
				for j, v := range got {
					if math.Float64bits(v) != math.Float64bits(want[i][j]) {
						errs <- fmt.Sprintf("sequence %d: %v, serial %v", i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
