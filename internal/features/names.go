package features

import (
	"fmt"
	"sync"

	"knowphish/internal/webpage"
)

// Group returns the feature group (F1..F5) of column i.
func Group(i int) Set {
	switch {
	case i < CountF1:
		return F1
	case i < CountF1+CountF2:
		return F2
	case i < CountF1+CountF2+CountF3:
		return F3
	case i < CountF1+CountF2+CountF3+CountF4:
		return F4
	case i < TotalCount:
		return F5
	default:
		return 0
	}
}

// Indices returns the sorted column indices belonging to the groups in s.
func Indices(s Set) []int {
	var out []int
	for i := 0; i < TotalCount; i++ {
		if Group(i)&s != 0 {
			out = append(out, i)
		}
	}
	return out
}

// Project copies the columns of x selected by cols into a new matrix,
// leaving x untouched.
func Project(x [][]float64, cols []int) [][]float64 {
	out := make([][]float64, len(x))
	for i, row := range x {
		r := make([]float64, len(cols))
		for j, c := range cols {
			r[j] = row[c]
		}
		out[i] = r
	}
	return out
}

var (
	namesOnce sync.Once
	names     []string
)

// Names returns the 212 column names in vector order. The slice is shared;
// callers must not modify it.
func Names() []string {
	namesOnce.Do(buildNames)
	return names
}

func buildNames() {
	urlStat := []string{"https", "dots_freeurl", "level_domains", "url_len", "fqdn_len", "mld_len", "url_terms", "mld_terms", "alexa_rank"}
	add := func(n string) { names = append(names, n) }

	// f1: starting URL, landing URL, then the four link groups.
	for _, s := range urlStat {
		add("f1.start." + s)
	}
	for _, s := range urlStat {
		add("f1.land." + s)
	}
	for _, group := range []string{"intlog", "extlog", "intlink", "extlink"} {
		for _, s := range urlStat[2:] {
			for _, agg := range []string{"mean", "median", "std"} {
				add(fmt.Sprintf("f1.%s.%s.%s", group, s, agg))
			}
		}
		add("f1." + group + ".https_ratio")
	}

	// f2: canonical pair order of the twelve distributions.
	ids := webpage.FeatureDistIDs
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			add(fmt.Sprintf("f2.hellinger.%s_%s", ids[i], ids[j]))
		}
	}

	// f3: binaries then sums.
	for _, which := range []string{"start", "land"} {
		for _, src := range f3BinarySources {
			add(fmt.Sprintf("f3.mld_in.%s.%s", which, src))
		}
	}
	for _, which := range []string{"start", "land"} {
		for _, src := range f3SumSources {
			add(fmt.Sprintf("f3.mld_probsum.%s.%s", which, src))
		}
	}

	// f4.
	for _, n := range []string{
		"chain_len", "chain_rdns", "start_land_same_rdn",
		"logged_rdns", "href_rdns", "int_ratio_logged", "int_ratio_href",
		"ext_logged", "ext_href", "land_share_logged", "land_share_href",
		"ext_rdns", "ext_concentration",
	} {
		add("f4." + n)
	}

	// f5.
	for _, n := range []string{"text_terms", "title_terms", "inputs", "images", "iframes"} {
		add("f5." + n)
	}
}
