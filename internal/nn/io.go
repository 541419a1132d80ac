package nn

import (
	"encoding/gob"
	"fmt"
	"io"
)

// paramBlob is the gob wire format for one parameter.
type paramBlob struct {
	Name       string
	Rows, Cols int
	Data       []float32
}

// SaveParams serializes parameter values (not gradients) to w with gob.
// Parameters are written in slice order; LoadParams must be called on a
// model with the identical architecture.
func SaveParams(w io.Writer, params []*Param) error {
	enc := gob.NewEncoder(w)
	blobs := make([]paramBlob, len(params))
	for i, p := range params {
		blobs[i] = paramBlob{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data}
	}
	return enc.Encode(blobs)
}

// LoadParams restores parameter values saved by SaveParams into params,
// validating shapes positionally. A blob whose data length disagrees with
// its declared shape (a truncated or padded save) is an error naming the
// parameter, and a failed load changes no parameter.
func LoadParams(r io.Reader, params []*Param) error {
	dec := gob.NewDecoder(r)
	var blobs []paramBlob
	if err := dec.Decode(&blobs); err != nil {
		return fmt.Errorf("nn: decode params: %w", err)
	}
	if len(blobs) != len(params) {
		return fmt.Errorf("nn: load params: got %d blobs, model has %d params", len(blobs), len(params))
	}
	for i, b := range blobs {
		p := params[i]
		if b.Rows != p.W.Rows || b.Cols != p.W.Cols {
			return fmt.Errorf("nn: load params: %q shape %dx%d, model expects %dx%d",
				b.Name, b.Rows, b.Cols, p.W.Rows, p.W.Cols)
		}
		if len(b.Data) != b.Rows*b.Cols {
			return fmt.Errorf("nn: load params: %q has %d values, shape %dx%d needs %d",
				b.Name, len(b.Data), b.Rows, b.Cols, b.Rows*b.Cols)
		}
	}
	// Every blob is valid: only now overwrite, so a failed load leaves the
	// model as it was.
	for i, b := range blobs {
		copy(params[i].W.Data, b.Data)
	}
	return nil
}
