// Command kptop is a zero-dependency terminal dashboard for a running
// kpserve: it polls GET /metrics and GET /debug/events and renders, in
// place, the numbers an operator watches during an incident — request
// and error rates, windowed latency percentiles (p50/p99/p999 over the
// rolling 1m/5m/1h windows, per endpoint class and per pipeline stage),
// the SLO error-budget burn rates and alert states, the admission
// controller's shed level and counters, the feed queue depth, and the
// tail of the operational event journal.
//
// Usage:
//
//	kptop -target http://127.0.0.1:8080              # live, repaint every 2s
//	kptop -target http://127.0.0.1:8080 -interval 1s
//	kptop -target http://127.0.0.1:8080 -once        # one frame to stdout (scriptable)
//
// -once prints a single frame without ANSI cursor control — the form
// CI logs and shell pipelines want. Live mode repaints in place and
// exits on interrupt. Colors mark the SLO states (green ok, yellow
// warn, red page); -no-color disables them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"knowphish/internal/obs"
	"knowphish/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "kptop:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		target   = flag.String("target", "http://127.0.0.1:8080", "kpserve base URL")
		interval = flag.Duration("interval", 2*time.Second, "poll interval in live mode")
		once     = flag.Bool("once", false, "print one frame and exit (no cursor control; for scripts and CI logs)")
		noColor  = flag.Bool("no-color", false, "disable ANSI colors")
	)
	flag.Parse()

	client := &http.Client{Timeout: 5 * time.Second}
	var prev *frame

	poll := func() (*frame, error) {
		f, err := fetchFrame(client, *target)
		if err != nil {
			return nil, err
		}
		out := renderFrame(prev, f, !*noColor)
		if *once {
			fmt.Print(out)
		} else {
			// Clear and home, then repaint: one frame per interval, no
			// scrollback spam.
			fmt.Print("\x1b[2J\x1b[H" + out)
		}
		return f, nil
	}

	if *once {
		_, err := poll()
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	t := time.NewTicker(*interval)
	defer t.Stop()
	for {
		f, err := poll()
		if err != nil {
			fmt.Printf("\x1b[2J\x1b[H(kptop: %v — retrying)\n", err)
		} else {
			prev = f
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return nil
		case <-t.C:
		}
	}
}

// frame is one poll's worth of server state.
type frame struct {
	At      time.Time
	Metrics serve.MetricsSnapshot
	Events  []obs.Event
}

// fetchFrame polls the server once. /metrics is required, and carries
// the SLO status whenever the server has an engine; the event journal
// is optional garnish (older servers don't serve it).
func fetchFrame(client *http.Client, target string) (*frame, error) {
	f := &frame{At: time.Now()}
	if err := getJSON(client, target+"/metrics", &f.Metrics); err != nil {
		return nil, err
	}
	var events struct {
		Events []obs.Event `json:"events"`
	}
	if err := getJSON(client, target+"/debug/events", &events); err == nil {
		f.Events = events.Events
	}
	return f, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
