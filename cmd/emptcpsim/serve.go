package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/exp"
	"repro/internal/runcache"
)

// logRunStats prints the persistent-store counters to stderr in the
// same shape as the single-run -v contract, so serve and campaign logs
// are greppable with the same patterns.
func logRunStats(stderr io.Writer, store *runcache.Store) {
	gets, hits, puts := store.DiskStats()
	fmt.Fprintf(stderr, "runcache store: %d gets, %d hits, %d puts\n", gets, hits, puts)
}

// openStore opens the persistent run cache, or returns nil (no store)
// for an empty dir.
func openStore(dir string, stderr io.Writer) (*runcache.Store, int) {
	if dir == "" {
		return nil, 0
	}
	store, err := runcache.OpenStore(dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, 1
	}
	return store, 0
}

// runServe is `emptcpsim serve`: the campaign control plane. It blocks
// until SIGINT/SIGTERM, then shuts down gracefully — in-flight
// campaigns are cancelled at a run boundary and every simulated result
// is synced to the cache directory, so a restarted server resumes
// resubmitted campaigns from disk.
func runServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emptcpsim serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8383", "listen address")
	cacheDir := fs.String("cachedir", "", "persistent run-cache directory (empty: none)")
	jobs := fs.Int("j", runtime.NumCPU(), "worker count per campaign")
	token := fs.String("token", "", "require this bearer token on every route except /healthz")
	leaseTTL := fs.Duration("lease-ttl", campaign.DefaultLeaseTTL, "shard-lease expiry for remote workers")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "serve takes no positional arguments (got %q)\n", fs.Args())
		usage(stderr)
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "-j %d: worker count must be ≥ 1\n", *jobs)
		usage(stderr)
		return 2
	}
	if *leaseTTL <= 0 {
		fmt.Fprintf(stderr, "-lease-ttl %v: must be positive\n", *leaseTTL)
		usage(stderr)
		return 2
	}

	store, code := openStore(*cacheDir, stderr)
	if code != 0 {
		return code
	}
	srv := campaign.NewServerOpts(campaign.Options{
		Disk: store, Jobs: *jobs, LeaseTTL: *leaseTTL,
	})
	srv.SetAuthToken(*token)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		srv.Close()
		store.Close()
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	cache := *cacheDir
	if cache == "" {
		cache = "none"
	}
	// The listening line goes to stderr: stdout belongs to results.
	fmt.Fprintf(stderr, "emptcpsim serve: listening on http://%s (cache %s, -j %d)\n", ln.Addr(), cache, *jobs)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	exit := 0
	select {
	case <-ctx.Done():
		fmt.Fprintln(stderr, "emptcpsim serve: shutting down")
	case err := <-errc:
		fmt.Fprintln(stderr, err)
		exit = 1
	}
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(sctx)
	if err := srv.Close(); err != nil { // cancels campaigns, syncs cache
		fmt.Fprintln(stderr, err)
		exit = 1
	}
	logRunStats(stderr, store)
	if err := store.Close(); err != nil {
		fmt.Fprintln(stderr, err)
		exit = 1
	}
	return exit
}

// runCampaign is `emptcpsim campaign`: execute one campaign locally
// and write its canonical aggregates. SPEC is a JSON file path, "-"
// for stdin, or the built-in name "wild" (the §5.1 grid; shape it with
// -device/-size/-population/-replicate). With -cachedir the campaign
// reads and extends the same persistent cache `serve` uses, so a local
// -j 1 run is the byte-identical reference for a served campaign.
func runCampaign(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("emptcpsim campaign", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cacheDir := fs.String("cachedir", "", "persistent run-cache directory (empty: none)")
	jobs := fs.Int("j", runtime.NumCPU(), "worker count")
	outFile := fs.String("o", "", "write aggregates to FILE (default stdout)")
	verbose := fs.Bool("v", false, "print run and cache statistics to stderr")
	device := fs.String("device", "s3", "device profile for the wild spec: s3 or n5")
	sizeMB := fs.Float64("size", 16, "download size in MB for the wild spec")
	population := fs.Int("population", 30, "seeds per cell for the wild spec")
	replicate := fs.Int("replicate", 1, "grid replication factor for the wild spec")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "campaign requires exactly one SPEC argument (a JSON file, \"-\", or \"wild\")")
		usage(stderr)
		return 2
	}
	if *jobs < 1 {
		fmt.Fprintf(stderr, "-j %d: worker count must be ≥ 1\n", *jobs)
		usage(stderr)
		return 2
	}

	var spec campaign.Spec
	switch arg := fs.Arg(0); arg {
	case "wild":
		spec = exp.WildSpec(*device, *sizeMB, *population, *replicate)
	default:
		var r io.Reader
		if arg == "-" {
			r = os.Stdin
		} else {
			f, err := os.Open(arg)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			defer f.Close()
			r = f
		}
		var err error
		if spec, err = campaign.DecodeSpec(r); err != nil {
			fmt.Fprintf(stderr, "bad campaign spec %s: %v\n", arg, err)
			return 1
		}
	}

	store, code := openStore(*cacheDir, stderr)
	if code != 0 {
		return code
	}
	defer store.Close()

	job, err := campaign.New(spec, campaign.Options{Disk: store, Jobs: *jobs})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// Ctrl-C cancels at a run boundary; with -cachedir the partial
	// campaign is durable and a re-invocation resumes.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			job.Cancel()
		case <-done:
		}
	}()
	err = job.Execute()
	close(done)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *verbose {
		p := job.Progress()
		fmt.Fprintf(stderr, "campaign %s: %d/%d runs, %d simulated, %d disk hits (hit rate %.4f)\n",
			p.ID, p.RunsDone, p.TotalRuns, p.Simulated, p.DiskHits, p.HitRate)
		logRunStats(stderr, store)
	}
	b, ok := job.Result()
	if !ok {
		fmt.Fprintf(stderr, "campaign %s: cancelled after %d of %d runs (rerun to resume)\n",
			job.ID(), job.Progress().RunsDone, job.Progress().TotalRuns)
		return 1
	}
	if *outFile != "" {
		if err := os.WriteFile(*outFile, b, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	}
	if _, err := stdout.Write(b); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}
