package core

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"testing"
)

func TestEngineSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	train := tinyData(rng, 36, 16, 16, 3, 3)
	cfg := DefaultTrainConfig()
	cfg.CNNEpochs = 2
	cfg.RNNEpochs = 1
	cfg.RNNHidden = 4
	cfg.RNNLayers = 1
	cfg.SVMEpochs = 3
	eng, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := eng.Save(&buf, cfg.CNN, cfg.RNNHidden, cfg.RNNLayers); err != nil {
		t.Fatal(err)
	}
	snapshot := append([]byte(nil), buf.Bytes()...)
	loaded, err := LoadEngine(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Classes != eng.Classes || loaded.ImgW != eng.ImgW || loaded.IMUClasses != eng.IMUClasses {
		t.Fatalf("metadata mismatch: %+v", loaded)
	}

	// The loaded engine must produce identical inferences.
	for i := 0; i < 5; i++ {
		a, err := eng.Classify(train.Frames.Row(i), train.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Classify(train.Frames.Row(i), train.Windows[i])
		if err != nil {
			t.Fatal(err)
		}
		if a.Class != b.Class {
			t.Fatalf("sample %d: class %d vs %d after round trip", i, a.Class, b.Class)
		}
		for j := range a.Probs {
			if math.Abs(a.Probs[j]-b.Probs[j]) > 1e-12 {
				t.Fatalf("sample %d: posterior differs after round trip", i)
			}
		}
	}

	// A combiner blob whose dimensions ask for a 2^40-cell CPT is an error,
	// not an out-of-memory crash.
	var blob engineBlob
	if err := gob.NewDecoder(bytes.NewReader(snapshot)).Decode(&blob); err != nil {
		t.Fatal(err)
	}
	var bn bytes.Buffer
	if err := gob.NewEncoder(&bn).Encode(struct{ Classes, ArityA, ArityB int }{1 << 40, 1, 1}); err != nil {
		t.Fatal(err)
	}
	blob.BNRNNBlob = bn.Bytes()
	var corrupt bytes.Buffer
	if err := gob.NewEncoder(&corrupt).Encode(blob); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadEngine(&corrupt); err == nil {
		t.Fatal("expected an error for an oversized combiner table")
	}
}

func TestLoadEngineRejectsGarbage(t *testing.T) {
	if _, err := LoadEngine(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("expected decode error")
	}
}
