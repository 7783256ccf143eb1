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
// megabytes.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"

	"imca/internal/memcache"
)

func main() {
	var (
		listen = flag.String("l", "127.0.0.1:11211", "listen address")
		memMB  = flag.Int64("m", 64, "memory limit in megabytes")
	)
	flag.Parse()

	srv := memcache.NewServer(*memMB << 20)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatalf("memcached: %v", err)
	}
	fmt.Printf("memcached listening on %s (%d MB)\n", addr, *memMB)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("\nshutting down")
	srv.Close()
}
