package api

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONUnencodableIsErrorEnvelope: a NaN estimate cannot be
// rendered as JSON, so the response must be a 500 error envelope carrying
// the request ID — never an empty 200.
func TestWriteJSONUnencodableIsErrorEnvelope(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/v1/estimate", nil)
	req.Header.Set(RequestIDHeader, "req-nan")
	rec := httptest.NewRecorder()
	nan := math.NaN()
	WriteJSON(rec, req, estimateResponse{Model: "m", Card: &nan})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %q", rec.Code, rec.Body.String())
	}
	var body errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("body is not an error envelope: %v (%q)", err, rec.Body.String())
	}
	if body.Error.Code != CodeInternal || body.RequestID != "req-nan" || body.Error.Message == "" {
		t.Fatalf("envelope = %+v", body)
	}

	// A finite card still renders as a plain 200.
	rec = httptest.NewRecorder()
	card := 12.5
	WriteJSON(rec, req, estimateResponse{Model: "m", Card: &card})
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("finite card: status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	var ok estimateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil || ok.Card == nil || *ok.Card != card {
		t.Fatalf("finite card body %q (%v)", rec.Body.String(), err)
	}
}
