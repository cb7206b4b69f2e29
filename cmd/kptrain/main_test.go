package main

import (
	"strings"
	"testing"

	"knowphish/internal/features"
)

func TestParseFeatureSet(t *testing.T) {
	for _, set := range features.PaperSets {
		if got, err := parseFeatureSet(set.String()); err != nil || got != set {
			t.Errorf("parseFeatureSet(%q) = %v, %v; want %v", set.String(), got, err, set)
		}
	}
	if got, err := parseFeatureSet(""); err != nil || got != features.All {
		t.Errorf(`parseFeatureSet("") = %v, %v; want fall`, got, err)
	}
	if _, err := parseFeatureSet("f6"); err == nil || !strings.Contains(err.Error(), "f2,3,4") {
		t.Errorf(`parseFeatureSet("f6"): err = %v, want one listing the sets`, err)
	}
}
