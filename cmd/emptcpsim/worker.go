package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// runWorker is `emptcpsim worker`: the pull side of distributed
// campaign execution. It leases shards of the campaign the coordinator
// named by -coordinator is running (POST /lease), executes them against
// its own -cachedir, and streams the shard aggregates back. Any number of
// workers may attach to one coordinator at any time; joining, leaving,
// and crashing never change the campaign's output bytes. Each worker
// needs its own -cachedir — the run cache is single-process.
func runWorker(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emptcpsim worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordinator := fs.String("coordinator", "", "coordinator base URL (required), e.g. http://host:8383")
	cacheDir := fs.String("cachedir", "", "persistent run-cache directory for this worker (empty: none)")
	token := fs.String("token", "", "bearer token, when the coordinator requires one")
	jobs := fs.Int("j", runtime.NumCPU(), "shards to execute concurrently")
	poll := fs.Duration("poll", 500*time.Millisecond, "idle wait between lease attempts")
	name := fs.String("name", "", "worker name in coordinator lease state (default host/pid)")
	verbose := fs.Bool("v", false, "log each leased shard and completion to stderr")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "worker takes no positional arguments (got %q)\n", fs.Args())
		usage(stderr)
		return 2
	}
	if *coordinator == "" {
		fmt.Fprintln(stderr, "worker requires -coordinator URL")
		usage(stderr)
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "-j %d: shard concurrency must be ≥ 1\n", *jobs)
		usage(stderr)
		return 2
	}
	if *poll <= 0 {
		fmt.Fprintf(stderr, "-poll %v: must be positive\n", *poll)
		usage(stderr)
		return 2
	}

	store, code := openStore(*cacheDir, stderr)
	if code != 0 {
		return code
	}

	logf := func(string, ...any) {}
	if *verbose {
		l := log.New(stderr, "", log.LstdFlags)
		logf = l.Printf
	}
	w, err := campaign.NewWorker(campaign.WorkerOptions{
		Coordinator:  *coordinator,
		Token:        *token,
		Disk:         store,
		Jobs:         *jobs,
		PollInterval: *poll,
		Name:         *name,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		store.Close()
		return 1
	}

	fmt.Fprintf(stderr, "emptcpsim worker: pulling from %s (-j %d)\n", *coordinator, *jobs)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	w.Run(ctx) // returns only on signal

	exit := 0
	fmt.Fprintf(stderr, "emptcpsim worker: done %d shards (%d duplicates, %d leases lost, %d refused for another model version)\n",
		w.ShardsDone.Load(), w.Duplicates.Load(), w.LeasesLost.Load(), w.Refused.Load())
	logRunStats(stderr, store)
	if err := store.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		exit = 1
	}
	return exit
}
