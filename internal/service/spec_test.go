package service

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestPlacerSpecWorkers pins the placer block's worker knob: workers maps
// straight onto placer.Config.Workers, and the retired wl_workers alias and
// optimizer knob are unknown fields, refused with 400 by the strict submit
// decoder.
func TestPlacerSpecWorkers(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"design": {"synth": {"cells": 100}}, "placer": {"workers": 4}}`), &spec); err != nil {
		t.Fatal(err)
	}
	if err := spec.Validate(""); err != nil {
		t.Fatalf("workers spec failed validation: %v", err)
	}
	if cfg := spec.placerConfig(); cfg.Workers != 4 {
		t.Errorf("Workers = %d, want 4", cfg.Workers)
	}

	srv, _ := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	for _, placer := range []string{`{"wl_workers": 2}`, `{"workers": 2, "wl_workers": 2}`, `{"optimizer": "nesterov"}`} {
		body := `{"design": {"synth": {"cells": 10}}, "placer": ` + placer + `}`
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("placer %s: status = %d, want 400", placer, resp.StatusCode)
		}
	}
}
