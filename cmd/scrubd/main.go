// Command scrubd serves the paper's scrub-scheduling policies as a
// long-running daemon. It ingests batched per-device I/O feed records
// over HTTP (POST /v1/feed), folds them into online idle statistics
// and incrementally refitted AR models before it answers the feed
// request, and serves scrub-decision queries
// (GET /v1/decide?dev=sda&now_us=...) with scrub-now / wait
// verdicts and suggested request sizes. Metrics export on /metrics in
// the Prometheus text format (or ?format=json|csv).
//
// All timing in decisions comes from feed timestamps, never the wall
// clock, so a recorded feed replays to byte-identical decisions; the
// wall clock only drives operational concerns (shutdown, periodic
// checkpoints) out here in the binary.
//
// Usage:
//
//	scrubd [-listen 127.0.0.1:9477] [-checkpoint state.ckpt] [-resume]
//	       [-shards 8] [-wait-threshold 500ms] [-ar-threshold 2s]
//	       [-max-order 8] [-refit-every 64] [-min-gaps 16]
//	       [-scrub-rate 67108864] [-checkpoint-every 0]
//
// With -checkpoint set, POST /v1/checkpoint writes the state file
// atomically, -checkpoint-every adds a periodic write, and a final
// checkpoint is taken on graceful shutdown; -resume restores from the
// file at startup when it exists.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/scrubd"
)

// newHTTPServer wraps the daemon's handler in a server that bounds how
// long one client may hold a connection. The bounds are generous on
// purpose: load generators leave keep-alive connections idle between
// bursts, and a connection closed under a non-idempotent POST /v1/feed
// fails that request.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       5 * time.Minute,
	}
}

func main() {
	listen := flag.String("listen", "127.0.0.1:9477", "HTTP listen address")
	ckptPath := flag.String("checkpoint", "", "checkpoint file path (enables /v1/checkpoint and shutdown checkpointing)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "write a checkpoint this often (0 disables periodic checkpoints)")
	resume := flag.Bool("resume", false, "restore state from -checkpoint at startup when the file exists")
	shards := flag.Int("shards", 0, "device shards (0 = default)")
	waitThr := flag.Duration("wait-threshold", 0, "Waiting policy idle threshold (0 = default)")
	arThr := flag.Duration("ar-threshold", 0, "AR policy predicted-idle threshold (0 = default)")
	maxOrder := flag.Int("max-order", 0, "max AR order for AIC selection (0 = default)")
	refitEvery := flag.Int("refit-every", 0, "gaps between AR refits per device (0 = default)")
	minGaps := flag.Int("min-gaps", 0, "gaps before trusting the AR fit (0 = default)")
	scrubRate := flag.Int64("scrub-rate", 0, "scrub throughput in bytes/sec for request sizing (0 = default)")
	maxDevices := flag.Int64("max-devices", 0, "device table cap (0 = default)")
	maxBody := flag.Int64("max-body", 0, "feed request body cap in bytes (0 = default)")
	flag.Parse()

	cfg := scrubd.Config{
		Shards:        *shards,
		WaitThreshold: *waitThr,
		ARThreshold:   *arThr,
		MaxOrder:      *maxOrder,
		Decay:         0,
		RefitEvery:    *refitEvery,
		MinGaps:       *minGaps,
		ScrubRate:     *scrubRate,
		MaxDevices:    *maxDevices,
	}

	var eng *scrubd.Engine
	if *resume && *ckptPath != "" {
		restored, err := scrubd.RestoreFile(*ckptPath)
		switch {
		case err == nil:
			eng = restored
			fmt.Fprintf(os.Stderr, "scrubd: resumed %d devices from %s\n", eng.Devices(), *ckptPath)
		case errors.Is(err, os.ErrNotExist):
			// First boot: nothing to resume yet.
		default:
			fmt.Fprintln(os.Stderr, "scrubd:", err)
			os.Exit(1)
		}
	}
	if eng == nil {
		eng = scrubd.NewEngine(cfg)
	}

	srv := scrubd.NewServer(eng, scrubd.ServerConfig{
		MaxBodyBytes:   *maxBody,
		CheckpointPath: *ckptPath,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scrubd:", err)
		os.Exit(1)
	}
	hs := newHTTPServer(srv.Handler())
	fmt.Fprintf(os.Stderr, "scrubd: listening on %s\n", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *ckptPath != "" && *ckptEvery > 0 {
		go func() {
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if _, err := eng.CheckpointFile(*ckptPath); err != nil {
						fmt.Fprintln(os.Stderr, "scrubd: periodic checkpoint:", err)
					}
				}
			}
		}()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "scrubd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		fmt.Fprintln(os.Stderr, "scrubd: shutdown:", err)
	}
	eng.Close()
	if *ckptPath != "" {
		if _, err := eng.CheckpointFile(*ckptPath); err != nil {
			fmt.Fprintln(os.Stderr, "scrubd: final checkpoint:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "scrubd: checkpointed %d devices to %s\n", eng.Devices(), *ckptPath)
	}
}
