package api

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"duet/internal/core"
	"duet/internal/registry"
)

// versionInfo describes one retained model artifact on this node.
type versionInfo struct {
	Version int       `json:"version"`
	Bytes   int64     `json:"bytes"`
	ModTime time.Time `json:"mod_time"`
}

// artifactPath names a versioned model file, matching the lifecycle
// subsystem's layout: <dir>/<name>.v<N>.duet.
func (s *Server) artifactPath(name string, version int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.v%d.duet", name, version))
}

// listVersions scans the artifact directory for a model's retained versions.
func (s *Server) listVersions(name string) ([]versionInfo, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, name+".v*.duet"))
	if err != nil {
		return nil, err
	}
	out := make([]versionInfo, 0, len(matches))
	prefix, suffix := name+".v", ".duet"
	for _, m := range matches {
		base := filepath.Base(m)
		v, err := strconv.Atoi(base[len(prefix) : len(base)-len(suffix)])
		if err != nil {
			continue
		}
		fi, err := os.Stat(m)
		if err != nil {
			continue
		}
		out = append(out, versionInfo{Version: v, Bytes: fi.Size(), ModTime: fi.ModTime()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out, nil
}

// versions lists a model's retained artifacts plus the version it currently
// serves, so the rollout can tell which peers lag.
func (s *Server) versions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	if _, err := s.reg.Table(name); err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	vs, err := s.listVersions(name)
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, err, nil)
		return
	}
	current := 0
	if st, ok := s.reg.Stats().PerModel[name]; ok {
		current = st.Version
	}
	WriteJSON(w, r, map[string]any{"model": name, "serving": current, "versions": vs})
}

// artifact streams one versioned model file; the rolling install's pull
// fetches peers' weights through this endpoint.
func (s *Server) artifact(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	version, err := strconv.Atoi(r.PathValue("version"))
	if err != nil || version <= 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("version must be a positive integer"), nil)
		return
	}
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	path := s.artifactPath(name, version)
	if _, err := os.Stat(path); err != nil {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("model %q has no artifact v%d", name, version), nil)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeFile(w, r, path)
}

// pullRequest asks this node to fetch a versioned artifact from a peer (or
// any /v1-speaking source) and hot-swap it in. Source is the peer's base
// URL; the artifact is pulled from <source>/v1/models/<name>/versions/<N>.
type pullRequest struct {
	Source  string `json:"source"`
	Version int    `json:"version"`
}

// pullClient fetches artifacts; the generous timeout covers large models on
// slow links, not health-check latencies.
var pullClient = &http.Client{Timeout: 60 * time.Second}

// pull implements the rolling install's per-node step: download the
// artifact, persist it locally under the same versioned name, load it
// against the served table, and drain-swap it in. The swap reuses the
// lifecycle install path, so in-flight estimates complete on the old
// generation. The peer's table must be encoding-compatible with ours (same
// dictionaries); a node whose backing table diverged re-trains locally
// instead of pulling.
func (s *Server) pull(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req pullRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err), nil)
		return
	}
	if req.Source == "" || req.Version <= 0 {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf(`"source" and a positive "version" are required`), nil)
		return
	}
	if s.dir == "" {
		WriteError(w, r, http.StatusNotFound, fmt.Errorf("no artifact directory configured"), nil)
		return
	}
	table, err := s.reg.Table(name)
	if err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	src, err := url.JoinPath(req.Source, "v1", "models", name, "versions", strconv.Itoa(req.Version))
	if err != nil {
		WriteError(w, r, http.StatusBadRequest, fmt.Errorf("bad source url: %w", err), nil)
		return
	}
	path, err := s.fetchArtifact(src, name, req.Version)
	if err != nil {
		WriteError(w, r, http.StatusBadGateway, err, nil)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		WriteError(w, r, http.StatusBadGateway, err, nil)
		return
	}
	m, err := core.Load(f, table)
	f.Close()
	if err != nil {
		WriteError(w, r, http.StatusBadRequest,
			fmt.Errorf("artifact v%d is not loadable against this node's %q table (diverged encoding? retrain locally): %w",
				req.Version, name, err), nil)
		return
	}
	if err := s.reg.SwapModel(name, m, registry.SwapOpts{Path: path, Version: req.Version}); err != nil {
		WriteError(w, r, statusFor(err), err, nil)
		return
	}
	WriteJSON(w, r, map[string]any{"status": "installed", "model": name, "version": req.Version, "path": path})
}

// fetchArtifact downloads one artifact to its canonical local path via a
// temp file and rename, so a crashed transfer never leaves a half-written
// .duet behind for the version listing to serve.
func (s *Server) fetchArtifact(srcURL, name string, version int) (string, error) {
	resp, err := pullClient.Get(srcURL)
	if err != nil {
		return "", fmt.Errorf("fetch artifact: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("fetch artifact: source answered %s", resp.Status)
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.CreateTemp(s.dir, name+".pull-*")
	if err != nil {
		return "", err
	}
	if _, err := io.Copy(tmp, resp.Body); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("fetch artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	path := s.artifactPath(name, version)
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}
