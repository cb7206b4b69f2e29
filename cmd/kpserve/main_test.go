package main

import (
	"flag"
	"io"
	"reflect"
	"testing"
)

// nonDefault sets every kpserve flag to a value other than its default.
var nonDefault = []string{
	"-addr", ":9090",
	"-model", "model.json",
	"-ranking", "ranking.csv",
	"-index", "index.json",
	"-workers", "3",
	"-memo-size", "99",
	"-deadline", "250ms",
	"-scale", "50",
	"-seed", "9",
	"-store", "verdicts",
	"-store-sync",
	"-feed-queue", "17",
	"-feed-workers", "2",
	"-domain-rate", "-1",
	"-drain-timeout", "3s",
	"-log-level", "debug",
	"-log-format", "json",
	"-debug-addr", "127.0.0.1:6060",
	"-slo-fast", "10s",
	"-slo", "score:p99<250ms",
}

func parse(t *testing.T, args []string) (reflect.Value, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("kpserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg, _, err := parseFlags(fs, args)
	if err != nil {
		t.Fatalf("parseFlags(%q): %v", args, err)
	}
	return reflect.ValueOf(cfg), fs
}

// TestEveryConfigFieldHasAFlag: with every flag moved off its default,
// every app.Config field but World — the model a caller already holds,
// which no command line can carry — differs from what the defaults give.
// A field no flag writes is a knob kpserve cannot turn.
func TestEveryConfigFieldHasAFlag(t *testing.T) {
	def, _ := parse(t, nil)
	set, fs := parse(t, nonDefault)

	given := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = true })
	fs.VisitAll(func(f *flag.Flag) {
		if !given[f.Name] {
			t.Errorf("flag -%s is not in nonDefault", f.Name)
		}
	})

	for i := 0; i < def.NumField(); i++ {
		name := def.Type().Field(i).Name
		if name == "World" {
			continue
		}
		if reflect.DeepEqual(def.Field(i).Interface(), set.Field(i).Interface()) {
			t.Errorf("app.Config.%s is the same with every flag set: no flag binds it", name)
		}
	}
}
