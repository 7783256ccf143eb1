// Command memcached is a memcached-compatible cache daemon speaking the
// standard text and binary protocols over TCP (each connection's first
// byte says which) — the same engine that backs IMCa's simulated MCD
// bank, deployable for real.
//
// Usage:
//
//	memcached [-l 127.0.0.1:11211] [-m 64]
//
// Flags mirror the original daemon: -l listen address, -m memory limit in
// megabytes. As in memcached, -m bounds the memory values take: they live
// in slab pages of one -m-sized region outside the Go heap. SIGINT or
// SIGTERM closes the listener and every connection before the process
// exits.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"syscall"

	"imca/internal/memcache"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is main with its environment abstracted: argv after the program
// name, the two output streams, the channel whose first signal ends the
// daemon, and the exit code as the return value.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	fs := flag.NewFlagSet("memcached", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen = fs.String("l", "127.0.0.1:11211", "listen address")
		memMB  = fs.Int64("m", 64, "memory limit in megabytes")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A limit below one megabyte, or one whose byte count overflows, is a
	// store that can hold nothing.
	if *memMB < 1 || *memMB > math.MaxInt64>>20 {
		fmt.Fprintf(stderr, "memcached: -m %d: the memory limit must be between 1 and %d megabytes\n", *memMB, int64(math.MaxInt64>>20))
		fs.Usage()
		return 2
	}

	srv := memcache.NewServer(*memMB << 20)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fmt.Fprintf(stderr, "memcached: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "memcached listening on %s (%d MB)\n", addr, *memMB)

	<-stop
	fmt.Fprintln(stdout, "\nshutting down")
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "memcached: %v\n", err)
		return 1
	}
	return 0
}
