package obs

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromWriterFamilies(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Counter("x_total", "a counter", 41)
	w.Gauge("y", "a gauge", 2.5)
	w.Header("z_info", "an info\nmetric", "gauge")
	w.Sample("z_info", 1, Label{"version", "v1"}, Label{"hash", `a"b\c`})
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP x_total a counter\n# TYPE x_total counter\nx_total 41\n",
		"# TYPE y gauge\ny 2.5\n",
		`# HELP z_info an info\nmetric`,
		`z_info{version="v1",hash="a\"b\\c"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPromWriterHistogram(t *testing.T) {
	h := NewWindowedHist(nil)
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Hour) // open-ended last bucket
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.Histogram("lat_seconds", "latency", h.SinceBoot())
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE lat_seconds histogram\n") {
		t.Fatalf("missing histogram TYPE:\n%s", out)
	}
	if !strings.Contains(out, `lat_seconds_bucket{le="+Inf"} 3`) {
		t.Errorf("+Inf bucket must equal the count:\n%s", out)
	}
	if !strings.Contains(out, "lat_seconds_count 3\n") {
		t.Errorf("missing count:\n%s", out)
	}
	// Cumulative counts never decrease down the bucket list.
	prev := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "lat_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if int64(v) < prev {
			t.Fatalf("cumulative count decreased at %q", line)
		}
		prev = int64(v)
	}
}

func TestFormatValue(t *testing.T) {
	cases := map[float64]string{
		math.Inf(1):  "+Inf",
		math.Inf(-1): "-Inf",
		1.5:          "1.5",
		0:            "0",
	}
	for in, want := range cases {
		if got := formatValue(in); got != want {
			t.Errorf("formatValue(%v) = %q, want %q", in, got, want)
		}
	}
	if got := formatValue(math.NaN()); got != "NaN" {
		t.Errorf("NaN renders as %q", got)
	}
}

func TestWriteRuntimeMetrics(t *testing.T) {
	var buf bytes.Buffer
	w := NewPromWriter(&buf)
	w.WriteRuntimeMetrics()
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"go_goroutines ", "go_heap_objects_bytes ", "go_gc_cycles_total ", "go_gc_pause_seconds_count "} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}
