// Command kpgen generates the synthetic evaluation corpora (Table V
// campaigns) and writes them as JSON, one file per campaign, so that
// other tools — and humans — can inspect exactly what the detector sees.
//
// Usage:
//
//	kpgen -out data/ -scale 10 -seed 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"knowphish/internal/dataset"
	"knowphish/internal/webgen"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kpgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		out       = flag.String("out", "data", "output directory")
		scale     = flag.Int("scale", 10, "divide Table V sizes by this factor (1 = paper scale)")
		seed      = flag.Int64("seed", 1, "generation seed")
		brands    = flag.Int("brands", 140, "number of brands in the world")
		skipLangs = flag.Bool("english-only", false, "skip the five non-English test sets")
	)
	flag.Parse()

	corpus, err := dataset.Build(dataset.Config{
		Seed:              *seed,
		Scale:             *scale,
		World:             webgen.Config{Brands: *brands},
		SkipLanguageTests: *skipLangs,
	})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	write := func(camp *dataset.Campaign) error {
		path := filepath.Join(*out, camp.Name+".json")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		if err := enc.Encode(camp); err != nil {
			f.Close()
			return fmt.Errorf("encoding %s: %w", camp.Name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d examples (initial %d)\n", path, camp.Clean(), camp.Initial)
		return nil
	}

	for _, camp := range []*dataset.Campaign{
		corpus.PhishTrain, corpus.PhishTest, corpus.PhishBrand, corpus.LegTrain,
	} {
		if err := write(camp); err != nil {
			return err
		}
	}
	for _, lang := range webgen.Languages {
		if camp, ok := corpus.LangTests[lang]; ok {
			if err := write(camp); err != nil {
				return err
			}
		}
	}

	// The offline ranking list (the paper's local Alexa copy).
	rankPath := filepath.Join(*out, "ranking.csv")
	f, err := os.Create(rankPath)
	if err != nil {
		return err
	}
	if _, err := corpus.World.Ranking().WriteTo(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d domains\n", rankPath, corpus.World.Ranking().Len())

	// The legitimate-web search index, which kpserve loads for target
	// identification.
	indexPath := filepath.Join(*out, "index.json")
	f, err = os.Create(indexPath)
	if err != nil {
		return err
	}
	if err := corpus.Engine.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d documents\n", indexPath, corpus.Engine.Len())
	return nil
}
