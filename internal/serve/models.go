package serve

import (
	"errors"
	"net/http"
	"os"

	"knowphish/internal/drift"
	"knowphish/internal/registry"
)

// ModelsResponse is the GET /v2/models document: every registered
// version, which one serves traffic, and the lifecycle gauges when the
// controller is configured.
type ModelsResponse struct {
	// ChampionVersion is the version serving traffic ("" while the
	// registry is being bootstrapped).
	ChampionVersion string `json:"champion_version,omitempty"`
	// Models lists every registered manifest, oldest version first.
	Models []registry.Manifest `json:"models"`
	Count  int                 `json:"count"`
	// Lifecycle carries drift gauges, shadow-scoring stats and the
	// pending evaluation (nil when no lifecycle controller runs).
	Lifecycle *drift.LifecycleStatus `json:"lifecycle,omitempty"`
}

// RetrainResponse is the POST /v2/models document.
type RetrainResponse struct {
	// Status is "retrain_started".
	Status string `json:"status"`
}

// PromoteRequest is the POST /v2/models/promote document.
type PromoteRequest struct {
	// Version names the registered model to promote.
	Version string `json:"version"`
	// Force bypasses the promotion gate — the operator override for
	// rollbacks and models without a pending evaluation. Without a
	// lifecycle controller every promotion behaves as forced (there is
	// no gate to consult).
	Force bool `json:"force,omitempty"`
}

// PromoteResponse reports a completed promotion.
type PromoteResponse struct {
	Promoted bool   `json:"promoted"`
	From     string `json:"from,omitempty"`
	To       string `json:"to"`
	// Gate is the lifecycle's ruling when one was consulted.
	Gate *drift.Decision `json:"gate,omitempty"`
}

// handleModels serves the model registry: GET lists versions and
// lifecycle state; POST triggers a background retrain from the verdict
// store.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("model registry is not configured on this server"))
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		resp := ModelsResponse{
			ChampionVersion: s.cfg.Registry.ChampionVersion(),
			Models:          s.cfg.Registry.List(),
		}
		resp.Count = len(resp.Models)
		if s.cfg.Lifecycle != nil {
			ls := s.cfg.Lifecycle.Status()
			resp.Lifecycle = &ls
		}
		s.reply(w, http.StatusOK, resp)
	case http.MethodPost:
		if s.cfg.Lifecycle == nil {
			s.fail(w, http.StatusServiceUnavailable, errors.New("retraining needs the lifecycle controller (run kpserve with a store and crawl source)"))
			return
		}
		if err := s.cfg.Lifecycle.RetrainAsync(); err != nil {
			// Single-flight: a retrain is already running.
			s.fail(w, http.StatusConflict, err)
			return
		}
		// The retrain outlives this request by design; progress and
		// outcome are visible at GET /v2/models (retraining flag,
		// challenger_version, last_error).
		s.reply(w, http.StatusAccepted, RetrainResponse{Status: "retrain_started"})
	default:
		w.Header().Set("Allow", "GET, POST")
		s.fail(w, http.StatusMethodNotAllowed, errors.New("method not allowed"))
	}
}

// handlePromote swaps the champion. With a lifecycle controller the
// promotion gate rules unless the request forces; with a bare registry
// the swap is direct.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("model registry is not configured on this server"))
		return
	}
	var req PromoteRequest
	if !s.decode(w, r, &req) {
		return
	}
	if req.Version == "" {
		s.fail(w, http.StatusBadRequest, errors.New("missing version"))
		return
	}
	from := s.cfg.Registry.ChampionVersion()
	resp := PromoteResponse{From: from, To: req.Version}
	if s.cfg.Lifecycle != nil {
		gate := s.cfg.Lifecycle.Decide()
		resp.Gate = &gate
		if _, err := s.cfg.Lifecycle.Promote(req.Version, req.Force); err != nil {
			s.failPromote(w, err)
			return
		}
	} else {
		if _, err := s.cfg.Registry.SetChampion(req.Version); err != nil {
			s.failPromote(w, err)
			return
		}
	}
	// The new champion is live: flush the model-dependent memo tables
	// (detector scores, target results) so no request is answered from
	// the predecessor's work. Analysis and feature memos are
	// model-independent and survive the swap.
	s.coal.InvalidateModel()
	resp.Promoted = true
	s.reply(w, http.StatusOK, resp)
}

// failPromote maps promotion errors onto statuses an operator can act
// on: a gate refusal is a 409 (retry with force or a better model), an
// unknown version a 404.
func (s *Server) failPromote(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, drift.ErrGateRefused):
		s.fail(w, http.StatusConflict, err)
	case errors.Is(err, os.ErrNotExist):
		s.fail(w, http.StatusNotFound, err)
	default:
		s.fail(w, http.StatusInternalServerError, err)
	}
}
