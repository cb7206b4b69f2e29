// Package registry is the versioned model store: every trained detector
// (kptrain -registry, or kpserve's bootstrap) becomes an immutable,
// content-hashed artifact on disk with a manifest (version, training
// stats, feature-set hash, creation time), and one version at a time is
// the champion that live traffic scores with. An operator swaps it with
// kptrain -promote or POST /v2/models/promote.
//
// Layout, under one registry directory:
//
//	v0001/model.json     detector artifact (core.Detector.Save bytes)
//	v0001/manifest.json  version, content hash, stats, feature-set hash
//	v0002/...
//	CHAMPION             the current champion's version, one line
//
// Two properties carry the subsystem:
//
//   - Atomic persistence: an artifact is staged in a temp directory and
//     renamed into place, and CHAMPION is replaced via temp-file +
//     rename, so a crash mid-save or mid-promotion leaves either the old
//     state or the new one, never a torn artifact.
//   - Lock-free hot swap: the champion is served from an atomic pointer.
//     Scorers resolve it with one atomic load per request
//     (Registry.Current); a promotion is one atomic store. In-flight requests keep the detector they
//     already resolved — a swap never stalls or drops them.
//
// The content hash (sha256 of the artifact bytes) makes artifacts
// verifiable and training reproducible: the same corpus, configuration
// and seed must produce the same hash, which CI checks.
package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"knowphish/internal/core"
	"knowphish/internal/features"
	"knowphish/internal/ranking"
)

// TrainingStats records what a model was trained and evaluated on — the
// provenance an operator reads before promoting it.
type TrainingStats struct {
	// Samples is the training-set size.
	Samples int `json:"samples"`
	// Phish and Legitimate split Samples by label.
	Phish      int `json:"phish"`
	Legitimate int `json:"legitimate"`
	// HeldOutAUC and HeldOutAccuracy are the model's scores on the
	// held-out split it was evaluated against at save time (0 when no
	// evaluation ran).
	HeldOutAUC      float64 `json:"held_out_auc,omitempty"`
	HeldOutAccuracy float64 `json:"held_out_accuracy,omitempty"`
	// Source names where the training data came from
	// ("synthetic-corpus", ...).
	Source string `json:"source,omitempty"`
}

// Manifest describes one registered model version.
type Manifest struct {
	// Version is the registry-assigned identity ("v0001", "v0002", ...).
	Version string `json:"version"`
	// Hash is the sha256 of the model artifact bytes (hex). Identical
	// training inputs must reproduce it; Load verifies it.
	Hash string `json:"hash"`
	// FeatureSet names the feature groups the model was trained on.
	FeatureSet string `json:"feature_set"`
	// FeatureSetHash fingerprints the exact feature schema (names and
	// order) the model consumes. Two models with equal FeatureSetHash are
	// swap-compatible: they read the same vector layout.
	FeatureSetHash string `json:"feature_set_hash"`
	// Threshold is the model's discrimination threshold.
	Threshold float64 `json:"threshold"`
	// CreatedAt is when the artifact was saved (UTC). It lives in the
	// manifest, not the artifact, so it never perturbs Hash.
	CreatedAt time.Time `json:"created_at"`
	// Stats is the training provenance.
	Stats TrainingStats `json:"stats"`
	// Notes is free-form operator context ("kptrain -scale 10 -seed 1
	// -trees 120").
	Notes string `json:"notes,omitempty"`
}

// Model pairs a loaded detector with its manifest.
type Model struct {
	Detector *core.Detector
	Manifest Manifest
}

// Registry is the on-disk model store plus the in-memory champion
// pointer. All methods are safe for concurrent use; Current is lock-free.
type Registry struct {
	dir  string
	rank *ranking.List

	// mu guards disk mutations and the manifest index — the cold paths.
	mu        sync.Mutex
	manifests map[string]Manifest

	// champion is the hot path: one atomic load per scored request.
	champion atomic.Pointer[core.Detector]
	// championMan mirrors the champion's manifest for introspection
	// endpoints; guarded by mu (Manifest is not needed on the hot path).
	championMan *Manifest
}

const (
	modelFile    = "model.json"
	manifestFile = "manifest.json"
	championFile = "CHAMPION"
)

// Open opens (creating if necessary) the registry at dir, indexes every
// version found and loads the champion named by the CHAMPION file, if
// any. rank is wired into loaded detectors (it is not embedded in
// artifacts, mirroring core.Load).
func Open(dir string, rank *ranking.List) (*Registry, error) {
	if dir == "" {
		return nil, errors.New("registry: directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", dir, err)
	}
	r := &Registry{dir: dir, rank: rank, manifests: make(map[string]Manifest)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading %s: %w", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), ".staging-") {
			// Debris of a save that crashed before its rename; the
			// version number was never taken.
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
	if err := r.rescanLocked(); err != nil {
		return nil, err
	}
	// Restore the champion, if one was promoted before.
	b, err := os.ReadFile(filepath.Join(dir, championFile))
	switch {
	case errors.Is(err, os.ErrNotExist):
		// No champion yet — a registry being bootstrapped.
	case err != nil:
		return nil, fmt.Errorf("registry: reading %s: %w", championFile, err)
	default:
		version := strings.TrimSpace(string(b))
		m, err := r.load(version)
		if err != nil {
			return nil, fmt.Errorf("registry: loading champion: %w", err)
		}
		r.champion.Store(m.Detector)
		man := m.Manifest
		r.championMan = &man
	}
	return r, nil
}

// rescanLocked folds versions that appeared in the directory since the
// last scan into the index — a second process (kptrain -registry
// against a live server's registry) registers versions this handle
// never saved. Save rescans before assigning a version so it never
// collides with an externally taken one, and List rescans so the
// /v2/models surface reflects the directory, not a snapshot of it.
func (r *Registry) rescanLocked() error {
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		return fmt.Errorf("registry: reading %s: %w", r.dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !isVersion(e.Name()) {
			continue
		}
		if _, ok := r.manifests[e.Name()]; ok {
			continue
		}
		man, err := readManifest(filepath.Join(r.dir, e.Name(), manifestFile))
		if err != nil {
			// A torn save (crash before rename) never produces a
			// half-directory, so a broken manifest is corruption worth
			// surfacing rather than skipping silently.
			return fmt.Errorf("registry: version %s: %w", e.Name(), err)
		}
		if man.Version != e.Name() {
			return fmt.Errorf("registry: version %s: manifest claims %q", e.Name(), man.Version)
		}
		r.manifests[man.Version] = man
	}
	return nil
}

// Len returns the number of registered versions.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.manifests)
}

// List returns every manifest, oldest version first, including
// versions registered by other processes since Open (best effort: an
// unreadable new version is simply not listed yet).
func (r *Registry) List() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	_ = r.rescanLocked()
	out := make([]Manifest, 0, len(r.manifests))
	for _, m := range r.manifests {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Version < out[j].Version })
	return out
}

// Current returns the champion detector (nil when none is promoted).
// It is one atomic load — the hot-path read behind every scored
// request.
func (r *Registry) Current() *core.Detector { return r.champion.Load() }

// Champion returns the champion model and whether one is set.
func (r *Registry) Champion() (Model, bool) {
	det := r.champion.Load()
	if det == nil {
		return Model{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.championMan == nil {
		return Model{}, false
	}
	return Model{Detector: det, Manifest: *r.championMan}, true
}

// ChampionVersion returns the champion's version ("" when none is set).
func (r *Registry) ChampionVersion() string {
	det := r.champion.Load()
	if det == nil {
		return ""
	}
	return det.Version()
}

// Save registers det as the next version: the artifact is serialized,
// content-hashed and staged to disk atomically (temp directory +
// rename). det is stamped with the assigned version (SetVersion), so
// save before publishing the detector to scorers. Saving does NOT
// promote; call SetChampion to swap traffic onto it.
func (r *Registry) Save(det *core.Detector, stats TrainingStats, notes string) (Manifest, error) {
	if det == nil {
		return Manifest{}, errors.New("registry: Save: nil detector")
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return Manifest{}, err
	}
	art := buf.Bytes()
	sum := sha256.Sum256(art)

	r.mu.Lock()
	defer r.mu.Unlock()
	// Never assign a version another process already took on disk.
	if err := r.rescanLocked(); err != nil {
		return Manifest{}, err
	}
	version := fmt.Sprintf("v%04d", r.maxVersionLocked()+1)
	man := Manifest{
		Version:        version,
		Hash:           hex.EncodeToString(sum[:]),
		FeatureSet:     det.FeatureSet().String(),
		FeatureSetHash: FeatureSetHash(det.FeatureSet()),
		Threshold:      det.Threshold(),
		CreatedAt:      time.Now().UTC(),
		Stats:          stats,
		Notes:          notes,
	}
	manJSON, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: encoding manifest: %w", err)
	}

	// Stage into a temp directory, then rename into place: readers never
	// observe a version directory without both files, and a crash leaves
	// only debris under a dot-name Open ignores.
	tmp, err := os.MkdirTemp(r.dir, ".staging-"+version+"-")
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: staging %s: %w", version, err)
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename
	// MkdirTemp creates 0700; installed versions should be readable like
	// any artifact directory.
	if err := os.Chmod(tmp, 0o755); err != nil {
		return Manifest{}, fmt.Errorf("registry: staging %s: %w", version, err)
	}
	if err := writeFileSync(filepath.Join(tmp, modelFile), art); err != nil {
		return Manifest{}, err
	}
	if err := writeFileSync(filepath.Join(tmp, manifestFile), append(manJSON, '\n')); err != nil {
		return Manifest{}, err
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, version)); err != nil {
		return Manifest{}, fmt.Errorf("registry: installing %s: %w", version, err)
	}
	det.SetVersion(version)
	r.manifests[version] = man
	return man, nil
}

// Load reads a registered version from disk, verifies its content hash
// against the manifest and returns the detector stamped with its
// version.
func (r *Registry) Load(version string) (Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.load(version)
}

func (r *Registry) load(version string) (Model, error) {
	man, err := readManifest(filepath.Join(r.dir, version, manifestFile))
	if err != nil {
		return Model{}, fmt.Errorf("registry: version %s: %w", version, err)
	}
	art, err := os.ReadFile(filepath.Join(r.dir, version, modelFile))
	if err != nil {
		return Model{}, fmt.Errorf("registry: version %s: %w", version, err)
	}
	sum := sha256.Sum256(art)
	if got := hex.EncodeToString(sum[:]); got != man.Hash {
		return Model{}, fmt.Errorf("registry: version %s: artifact hash %s does not match manifest %s (corrupt or tampered artifact)", version, got, man.Hash)
	}
	det, err := core.Load(bytes.NewReader(art), r.rank)
	if err != nil {
		return Model{}, fmt.Errorf("registry: version %s: %w", version, err)
	}
	det.SetVersion(version)
	return Model{Detector: det, Manifest: man}, nil
}

// SetChampion promotes a registered version: the artifact is loaded and
// verified, the CHAMPION file is replaced atomically, and the in-memory
// pointer is swapped. Scorers resolving the source after SetChampion
// returns — and possibly a moment before, once the pointer is stored —
// get the new detector; in-flight requests finish on the old one. No
// scoring path blocks at any point.
func (r *Registry) SetChampion(version string) (Model, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, err := r.load(version)
	if err != nil {
		return Model{}, err
	}
	// Persist first: if the rename fails the in-memory champion is
	// unchanged and the error surfaces; if the process dies after the
	// rename, Open restores exactly this promotion.
	tmp := filepath.Join(r.dir, "."+championFile+".tmp")
	if err := writeFileSync(tmp, []byte(version+"\n")); err != nil {
		return Model{}, err
	}
	if err := os.Rename(tmp, filepath.Join(r.dir, championFile)); err != nil {
		return Model{}, fmt.Errorf("registry: installing %s: %w", championFile, err)
	}
	r.champion.Store(m.Detector)
	man := m.Manifest
	r.championMan = &man
	return m, nil
}

// FeatureSetHash fingerprints the feature schema a detector trained on
// set consumes: the set name plus every projected feature name, in
// order. Models sharing the hash read identical vector layouts and are
// therefore hot-swap compatible.
func FeatureSetHash(set features.Set) string {
	if set == 0 {
		set = features.All
	}
	h := sha256.New()
	h.Write([]byte(set.String()))
	h.Write([]byte{0})
	names := features.Names()
	if set != features.All {
		idx := features.Indices(set)
		proj := make([]string, 0, len(idx))
		for _, i := range idx {
			if i < len(names) {
				proj = append(proj, names[i])
			}
		}
		names = proj
	}
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (r *Registry) maxVersionLocked() int {
	max := 0
	for v := range r.manifests {
		if n, ok := versionNumber(v); ok && n > max {
			max = n
		}
	}
	return max
}

func isVersion(name string) bool {
	_, ok := versionNumber(name)
	return ok
}

func versionNumber(name string) (int, bool) {
	if len(name) < 2 || name[0] != 'v' {
		return 0, false
	}
	n := 0
	for _, c := range name[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

func readManifest(path string) (Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Manifest{}, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("decoding manifest: %w", err)
	}
	if m.Version == "" || m.Hash == "" {
		return Manifest{}, errors.New("manifest missing version or hash")
	}
	return m, nil
}

// writeFileSync writes data and fsyncs before closing, so a rename that
// follows publishes fully durable bytes.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("registry: creating %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("registry: syncing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("registry: closing %s: %w", path, err)
	}
	return nil
}
