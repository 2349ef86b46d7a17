package bayes

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// combinerBlob is the gob wire form of a combiner.
type combinerBlob struct {
	Classes int
	Arities []int
	// ArityA and ArityB are the parent arities of snapshots written before
	// the combiner took N parents; such a blob has no Arities and decodes as
	// two parents.
	ArityA int
	ArityB int
	CPT    []float64 // flattened [k][joint parent outcome], last parent fastest
	Fitted bool
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (c *Combiner) MarshalBinary() ([]byte, error) {
	blob := combinerBlob{Classes: c.classes, Arities: c.arities, CPT: c.cpt, Fitted: c.fitted}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(blob); err != nil {
		return nil, fmt.Errorf("bayes: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. The blob's
// dimensions are bounded and checked against its CPT before the combiner is
// built, so a corrupt snapshot is an error, not an out-of-memory crash.
func (c *Combiner) UnmarshalBinary(data []byte) error {
	var blob combinerBlob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&blob); err != nil {
		return fmt.Errorf("bayes: decode: %w", err)
	}
	arities := blob.Arities
	if len(arities) == 0 {
		arities = []int{blob.ArityA, blob.ArityB}
	}
	size, err := tableSize(blob.Classes, arities)
	if err != nil {
		return fmt.Errorf("bayes: snapshot: %w", err)
	}
	if len(blob.CPT) != size {
		return fmt.Errorf("bayes: snapshot CPT has %d entries, want %d", len(blob.CPT), size)
	}
	fresh := newCombiner(blob.Classes, arities, blob.CPT)
	fresh.fitted = blob.Fitted
	*c = *fresh
	return nil
}
