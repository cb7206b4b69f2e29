package app

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/ranking"
	"knowphish/internal/search"
)

// World is a trained stack: the detector, the legitimate-web search
// index target identification queries, and the crawl source the feed
// fetches from (nil: no feed). A caller that already holds one — a
// benchmark sharing one corpus across runs — passes it as Config.World.
type World struct {
	Detector *core.Detector
	Engine   *search.Engine
	Fetcher  crawl.Fetcher
}

// BuildCorpus generates the synthetic world and its campaigns — the
// substrate of the self-train mode and of kptrain.
// dataset gives the world seed+1, which is what lets `kpload run -seed
// N` replay URLs a `-seed N` server resolves.
func BuildCorpus(scale int, seed int64) (*dataset.Corpus, error) {
	return dataset.Build(dataset.Config{
		Seed:              seed,
		Scale:             scale,
		SkipLanguageTests: true,
	})
}

// TrainDemo fits the demo detector — the fixed recipe of every
// self-trained server and of kptrain, trees boosting rounds deep — on
// the corpus training campaigns.
func TrainDemo(corpus *dataset.Corpus, seed int64, trees int) (*core.Detector, error) {
	snaps := append(corpus.LegTrain.Snapshots(), corpus.PhishTrain.Snapshots()...)
	labels := append(corpus.LegTrain.Labels(), corpus.PhishTrain.Labels()...)
	return core.Train(snaps, labels, core.TrainConfig{
		GBM:  ml.GBMConfig{Trees: trees, MaxDepth: 4, Subsample: 0.8, MinLeaf: 5, Seed: seed + 2},
		Rank: corpus.World.Ranking(),
	})
}

// loadWorld resolves cfg's model source (see Config).
func loadWorld(cfg Config, logger *slog.Logger) (World, error) {
	switch {
	case cfg.World != nil:
		return *cfg.World, nil
	case cfg.Model != "":
		return loadArtifacts(cfg.Model, cfg.Ranking, cfg.Index, logger)
	case cfg.Ranking != "" || cfg.Index != "":
		return World{}, errors.New("a ranking or index needs a model file; the self-train path would silently ignore them")
	}
	logger.Info("no model given; self-training", "scale", cfg.Scale)
	corpus, err := BuildCorpus(cfg.Scale, cfg.Seed)
	if err != nil {
		return World{}, err
	}
	det, err := TrainDemo(corpus, cfg.Seed, 100)
	return World{Detector: det, Engine: corpus.Engine, Fetcher: corpus.World}, err
}

// readArtifact decodes the file at path with read.
func readArtifact[T any](path string, read func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close() // read-only
	v, err := read(f)
	if err != nil {
		err = fmt.Errorf("reading %s: %w", path, err)
	}
	return v, err
}

// loadArtifacts assembles the detector and search index from saved
// artifacts. There is no crawl source on this path.
func loadArtifacts(modelPath, rankPath, indexPath string, logger *slog.Logger) (w World, err error) {
	var rank *ranking.List
	if rankPath == "" {
		// The ranking is not embedded in the model (see Detector.Save);
		// without it the popularity feature sees every domain as
		// unranked — a distribution the model never trained on.
		logger.Warn("no ranking; popularity feature will treat all domains as unranked")
	} else if rank, err = readArtifact(rankPath, ranking.Read); err != nil {
		return World{}, err
	}
	w.Detector, err = readArtifact(modelPath, func(r io.Reader) (*core.Detector, error) { return core.Load(r, rank) })
	if err != nil {
		return World{}, err
	}
	if indexPath == "" {
		logger.Warn("no index; target identification will mostly report suspicious")
		w.Engine = search.NewEngine()
	} else if w.Engine, err = readArtifact(indexPath, search.Load); err != nil {
		return World{}, err
	}
	return w, nil
}
