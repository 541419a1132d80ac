package nn

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

// TestLoadParamsRejectsMisSizedBlobs: a blob whose data is shorter or longer
// than its declared shape must fail the load with the parameter's name and
// leave every parameter untouched.
func TestLoadParamsRejectsMisSizedBlobs(t *testing.T) {
	cases := []struct {
		name    string
		data    []float32
		wantErr string
	}{
		{"exact", []float32{1, 2, 3, 4, 5, 6}, ""},
		{"short", []float32{1, 2, 3}, `"w2" has 3 values, shape 2x3 needs 6`},
		{"long", []float32{1, 2, 3, 4, 5, 6, 7}, `"w2" has 7 values, shape 2x3 needs 6`},
		{"empty", nil, `"w2" has 0 values, shape 2x3 needs 6`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			blobs := []paramBlob{
				{Name: "w1", Rows: 1, Cols: 2, Data: []float32{9, 9}},
				{Name: "w2", Rows: 2, Cols: 3, Data: c.data},
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(blobs); err != nil {
				t.Fatal(err)
			}
			params := []*Param{NewParam("w1", 1, 2), NewParam("w2", 2, 3)}
			err := LoadParams(&buf, params)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("LoadParams: %v", err)
				}
				if params[1].W.Data[5] != 6 || params[0].W.Data[0] != 9 {
					t.Fatalf("values not loaded: %v %v", params[0].W.Data, params[1].W.Data)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("LoadParams error = %v, want it to contain %q", err, c.wantErr)
			}
			for _, p := range params {
				for _, v := range p.W.Data {
					if v != 0 {
						t.Fatalf("failed load changed %q: %v", p.Name, p.W.Data)
					}
				}
			}
		})
	}
}
