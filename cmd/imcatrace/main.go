// Command imcatrace records file system operation traces from built-in
// workloads and replays them against arbitrary cluster configurations, so
// configurations can be compared on identical operation sequences.
//
//	imcatrace record -out t.trace -workload latency -clients 4
//	imcatrace replay -in t.trace -mcds 2 -block 2048
//	imcatrace replay -in t.trace -mcds 0            # NoCache baseline
//
// After an IMCa replay the tool prints the cache bank's statistics (gets,
// hits, misses, evictions, down replies) so replays are comparable beyond
// elapsed virtual time.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"imca/internal/cluster"
	"imca/internal/core"
	"imca/internal/gluster"
	"imca/internal/iotrace"
	"imca/internal/memcache"
	"imca/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		if err := replay(os.Args[2:], os.Stdout); err != nil {
			fatal(err)
		}
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  imcatrace record -out FILE [-workload latency|smallfiles|mdtest] [-clients N]
  imcatrace replay -in FILE [-clients N] [-mcds N] [-block BYTES] [-threaded]

replay prints per-op-kind averages, and with MCDs also the cache bank's
stats (gets/hits/misses, sets, evictions, down replies).`)
	os.Exit(2)
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "", "output trace file (required)")
	wl := fs.String("workload", "latency", "workload to record: latency, smallfiles, mdtest")
	clients := fs.Int("clients", 4, "client count")
	fs.Parse(args)
	if *out == "" {
		usage()
	}

	// Record against a plain (NoCache) deployment: the trace captures the
	// operation stream, not the configuration.
	c := cluster.New(cluster.Options{Clients: *clients})
	tr := &iotrace.Trace{}
	mounts := make([]gluster.FS, *clients)
	for i := range mounts {
		mounts[i] = iotrace.NewRecorder(c.Mounts[i].FS, tr, i)
	}

	switch *wl {
	case "latency":
		workload.Latency(c.Env, mounts, workload.LatencyOptions{
			Dir:         "/trace",
			RecordSizes: []int64{256, 4096, 65536},
			Records:     64,
		})
	case "smallfiles":
		workload.SmallFiles(c.Env, mounts, workload.SmallFilesOptions{
			Dir: "/trace", Files: 64, FileSize: 8 << 10, Accesses: 256, Seed: 1,
		})
	case "mdtest":
		workload.MDTest(c.Env, mounts, workload.MDTestOptions{
			Dir: "/trace", FilesPerClient: 64,
		})
	default:
		fmt.Fprintf(os.Stderr, "imcatrace: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tr.Encode(f); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded %d operations from %q (%d clients) to %s\n",
		len(tr.Ops), *wl, *clients, *out)
}

// replay runs the replay subcommand with args and writes its report to w.
func replay(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "", "input trace file (required)")
	clients := fs.Int("clients", 4, "client mounts to replay onto")
	mcds := fs.Int("mcds", 2, "MCD count (0 = NoCache)")
	block := fs.Int64("block", 2048, "IMCa block size")
	threaded := fs.Bool("threaded", false, "threaded SMCache updates")
	fs.Parse(args)
	if *in == "" {
		usage()
	}
	if err := core.CheckBlockSize(*block); err != nil {
		fmt.Fprintln(os.Stderr, "imcatrace: -block:", err)
		usage()
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	tr, err := iotrace.Decode(f)
	f.Close()
	if err != nil {
		return err
	}

	c := cluster.New(cluster.Options{
		Clients: *clients, MCDs: *mcds, MCDMemBytes: 512 << 20,
		BlockSize: *block, Threaded: *threaded,
	})
	res := iotrace.Replay(c.Env, c.FSes(), tr)

	var bank *memcache.Stats
	if *mcds > 0 {
		b := c.BankStats()
		bank = &b
	}
	writeReplayReport(w, len(tr.Ops), *clients, *mcds, res, bank)
	return nil
}

// writeReplayReport formats the replay summary: the headline, per-kind
// averages in sorted kind order, and the bank's statistics when one
// exists. It is a pure function of its inputs so the determinism test can
// hold two replays of the same trace to byte-identical output.
func writeReplayReport(w io.Writer, opCount, clients, mcds int, res *iotrace.Result, bank *memcache.Stats) {
	fmt.Fprintf(w, "replayed %d ops on %d clients, %d MCDs: %v elapsed (virtual), %d errors\n",
		opCount, clients, mcds, res.Elapsed, res.Errors)
	kinds := make([]string, 0, len(res.OpCounts))
	for k := range res.OpCounts {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		kind := iotrace.Kind(k)
		fmt.Fprintf(w, "  %-9s %6d ops, avg %v\n", k, res.OpCounts[kind], res.AvgOp(kind))
	}
	if bank != nil {
		fmt.Fprintf(w, "bank: %d gets (%d hits, %d misses), %d sets, %d items, %d evictions\n",
			bank.CmdGet, bank.GetHits, bank.GetMisses, bank.CmdSet, bank.CurrItems, bank.Evictions)
		fmt.Fprintf(w, "bank: %d down replies\n", bank.DownReplies)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "imcatrace: %v\n", err)
	os.Exit(1)
}
