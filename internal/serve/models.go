package serve

import (
	"errors"
	"net/http"
	"os"

	"knowphish/internal/registry"
)

// ModelsResponse is the GET /v2/models document: every registered
// version and which one serves traffic.
type ModelsResponse struct {
	// ChampionVersion is the version serving traffic ("" while the
	// registry is being bootstrapped).
	ChampionVersion string `json:"champion_version,omitempty"`
	// Models lists every registered manifest, oldest version first.
	Models []registry.Manifest `json:"models"`
	Count  int                 `json:"count"`
}

// PromoteRequest is the POST /v2/models/promote document.
type PromoteRequest struct {
	// Version names the registered model to promote.
	Version string `json:"version"`
}

// PromoteResponse reports a completed promotion.
type PromoteResponse struct {
	Promoted bool   `json:"promoted"`
	From     string `json:"from,omitempty"`
	To       string `json:"to"`
}

// handleModels lists the model registry: every version and the
// champion.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		s.fail(w, http.StatusServiceUnavailable, errors.New("model registry is not configured on this server"))
		return
	}
	resp := ModelsResponse{
		ChampionVersion: s.cfg.Registry.ChampionVersion(),
		Models:          s.cfg.Registry.List(),
	}
	resp.Count = len(resp.Models)
	s.reply(w, http.StatusOK, resp)
}

// handlePromote swaps the champion to a registered version.
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
	if _, err := s.cfg.Registry.SetChampion(req.Version); err != nil {
		// An unknown version is a 404 an operator can act on.
		status := http.StatusInternalServerError
		if errors.Is(err, os.ErrNotExist) {
			status = http.StatusNotFound
		}
		s.fail(w, status, err)
		return
	}
	// The new champion is live: flush both memo tables (detector scores,
	// target results) so no request is answered from the predecessor's
	// work.
	s.coal.InvalidateModel()
	s.reply(w, http.StatusOK, PromoteResponse{Promoted: true, From: from, To: req.Version})
}
