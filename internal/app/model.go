package app

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"

	"knowphish/internal/core"
	"knowphish/internal/crawl"
	"knowphish/internal/dataset"
	"knowphish/internal/ml"
	"knowphish/internal/ranking"
	"knowphish/internal/search"
	"knowphish/internal/webgen"
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

// DemoTrees is the demo detector's boosting rounds: every self-trained
// server's, and kptrain's default.
const DemoTrees = 100

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
		return loadArtifacts(cfg.Model)
	}
	logger.Info("no model given; self-training", "scale", cfg.Scale)
	corpus, err := BuildCorpus(cfg.Scale, cfg.Seed)
	if err != nil {
		return World{}, err
	}
	det, err := TrainDemo(corpus, cfg.Seed, DemoTrees)
	return World{Detector: det, Engine: corpus.Engine, Fetcher: corpus.World}, err
}

// The artifact set of one world, as files in one directory. The
// detector file leaves the ranking list out (see Detector.Save), so the
// set carries it beside the search index.
const (
	modelFile   = "model.json"
	rankingFile = "ranking.csv"
	indexFile   = "index.json"
)

// WriteArtifacts saves the world of corpus and det into dir, creating
// it: the detector, the ranking list its popularity feature reads, the
// legitimate-web index target identification queries, and one JSON file
// per campaign, named after it, for people and tools to inspect. A
// server started with Config.Model = dir serves what a self-trained one
// of the same corpus and detector serves.
func WriteArtifacts(dir string, corpus *dataset.Corpus, det *core.Detector) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type artifact struct {
		name  string
		write func(io.Writer) error
	}
	set := []artifact{
		{modelFile, det.Save},
		{rankingFile, func(w io.Writer) error { _, err := corpus.World.Ranking().WriteTo(w); return err }},
		{indexFile, corpus.Engine.Save},
	}
	camps := []*dataset.Campaign{corpus.PhishTrain, corpus.PhishTest, corpus.PhishBrand, corpus.LegTrain}
	for _, lang := range webgen.Languages {
		if camp, ok := corpus.LangTests[lang]; ok {
			camps = append(camps, camp)
		}
	}
	for _, camp := range camps {
		set = append(set, artifact{camp.Name + ".json", func(w io.Writer) error { return json.NewEncoder(w).Encode(camp) }})
	}
	for _, a := range set {
		if err := writeArtifact(filepath.Join(dir, a.name), a.write); err != nil {
			return err
		}
	}
	return nil
}

// writeArtifact creates the file at path and fills it with write.
func writeArtifact(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
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

// loadArtifacts assembles the detector and search index from the
// artifact set in dir. Every file it reads is required; an error names
// the file. There is no crawl source on this path.
func loadArtifacts(dir string) (w World, err error) {
	rank, err := readArtifact(filepath.Join(dir, rankingFile), ranking.Read)
	if err != nil {
		return World{}, err
	}
	w.Detector, err = readArtifact(filepath.Join(dir, modelFile), func(r io.Reader) (*core.Detector, error) { return core.Load(r, rank) })
	if err != nil {
		return World{}, err
	}
	w.Engine, err = readArtifact(filepath.Join(dir, indexFile), search.Load)
	return w, err
}
