package experiments

import (
	"fmt"
	"math/rand"
	"strconv"

	"knowphish/internal/dataset"
	"knowphish/internal/webgen"
)

// TableV reproduces the dataset description (Table V): per-campaign
// initial and clean counts, with the cleaning pass demonstrated live on a
// fresh noisy capture.
func (r *Runner) TableV() *Table {
	t := &Table{
		Title:  "Table V: Datasets description",
		Header: []string{"Set", "Name", "Initial", "Clean"},
	}
	c := r.Corpus
	addCampaign := func(kind string, camp *dataset.Campaign, cleaned bool) {
		clean := strconv.Itoa(camp.Clean())
		if !cleaned {
			clean = "-"
		}
		t.AddRow(kind, camp.Name, strconv.Itoa(camp.Initial), clean)
	}
	addCampaign("Phish", c.PhishTrain, true)
	addCampaign("Phish", c.PhishTest, true)
	addCampaign("Phish", c.PhishBrand, true)
	addCampaign("Leg", c.LegTrain, true)
	for _, lang := range webgen.Languages {
		if camp, ok := c.LangTests[lang]; ok {
			addCampaign("Leg", camp, false)
		}
	}

	// Demonstrate the cleaning pass the paper performed manually: a raw
	// PhishTank-style capture retains only true phishing pages.
	rng := rand.New(rand.NewSource(r.Seed + 5))
	raw := c.NoisyCapture(rng, 200)
	clean := dataset.CleanCapture(raw)
	t.Notes = append(t.Notes,
		fmt.Sprintf("cleaning demo: raw capture of %d pages -> %d after removing unavailable/parked/mislabeled", len(raw), len(clean)),
		fmt.Sprintf("corpus scale 1/%d of Table V sizes", c.Scale()),
	)
	return t
}
