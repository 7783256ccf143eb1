package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sort"

	"imca/internal/blob"
	"imca/internal/memcache"
	"imca/internal/xrand"
)

// mcdTCP drives the real daemon over loopback: one closed-loop client
// connection (plus the daemon's connection goroutine), Zipf(1.1) keys,
// 90/10 get/set, and a set after every miss as a cache user would issue.
// Every round trip is one op.
type mcdTCP struct {
	seed   uint64
	nkeys  int
	nops   int
	memory int64

	srv    *memcache.Server
	client *memcache.Client
	keys   []string
	lat    []int32 // one round trip each, ns

	moved  int64 // value bytes sent and received in the timed phase
	check  checker
	misses int
}

var (
	valueSizes = [...]int{100, 100, 2048, 2048, 16384}
	// valueBufs holds one buffer per (size, fill byte), made when first
	// asked for (mcd_tcp's set-up asks for them all) and never written
	// afterwards, so every set of a key sends identical bytes.
	valueBufs = map[int][]byte{}
)

const fills = 26

func valueSize(key int) int  { return valueSizes[key%len(valueSizes)] }
func valueFill(key int) byte { return byte('a' + key%fills) }

func valueOf(key int) []byte {
	i := valueSize(key)*fills + key%fills
	b := valueBufs[i]
	if b == nil {
		b = bytes.Repeat([]byte{valueFill(key)}, valueSize(key))
		valueBufs[i] = b
	}
	return b
}

func newMcdTCP(seconds float64, seed uint64) *mcdTCP {
	// Below the reference length the key space and the daemon's memory
	// shrink together, so the working set stays about 3x memory.
	nkeys := 50000
	if seconds < refSeconds {
		nkeys = int(scaled(50000, seconds, 5000))
	}
	return &mcdTCP{
		seed:   seed,
		nkeys:  nkeys,
		nops:   int(scaled(600000, seconds, 1000)),
		memory: 64 << 20 * int64(nkeys) / 50000,
	}
}

func (w *mcdTCP) setup() {
	w.srv = memcache.NewServer(w.memory)
	addr, err := w.srv.Listen("127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("mcd_tcp: listen: %v", err))
	}
	w.client, err = memcache.Dial(addr.String())
	if err != nil {
		panic(fmt.Sprintf("mcd_tcp: dial: %v", err))
	}
	w.keys = make([]string, w.nkeys)
	for k := range w.keys {
		w.keys[k] = fmt.Sprintf("/bench/file%07d:stat", k)
		if err := w.set(k); err != nil {
			panic(fmt.Sprintf("mcd_tcp: preset %d: %v", k, err))
		}
	}
	w.lat = make([]int32, 0, w.nops)
}

func (w *mcdTCP) set(k int) error {
	return w.client.Set(&memcache.Item{Key: w.keys[k], Value: blob.FromBytes(valueOf(k))})
}

func (w *mcdTCP) instrument() {}

func (w *mcdTCP) timed() {
	rng := xrand.New(w.seed)
	zipf := xrand.NewZipf(xrand.New(w.seed+1), 1.1, w.nkeys)
	pending := -1 // key to set because the last get missed
	for len(w.lat) < w.nops {
		k := pending
		isSet := k >= 0
		if !isSet {
			k = zipf.DrawFrom(rng)
			isSet = rng.Float64() < 0.1
		}
		pending = -1
		t0 := now()
		if isSet {
			if err := w.set(k); err != nil {
				w.check.fail("set key %d: %v", k, err)
			}
			w.moved += int64(valueSize(k))
		} else {
			it, err := w.client.Get(w.keys[k])
			switch {
			case errors.Is(err, memcache.ErrCacheMiss):
				w.misses++
				pending = k
			case err != nil:
				w.check.fail("get key %d: %v", k, err)
			default:
				got := it.Value.Bytes()
				w.check.checkValue(k, got)
				w.moved += int64(len(got))
			}
		}
		d := since(t0)
		if d > math.MaxInt32 {
			d = math.MaxInt32 // a stall past 2.1 s still sorts last
		}
		w.lat = append(w.lat, int32(d))
	}
}

func (w *mcdTCP) ops() int64 { return int64(w.nops) }

func (w *mcdTCP) sizes() map[string]int64 {
	return map[string]int64{"keys": int64(w.nkeys), "memory_bytes": w.memory, "connections": 1, "ops": w.ops()}
}

// counts carries the daemon's store counters in the bank fields and the
// value bytes the client moved in FabricB; collect reports them under
// mcd.* names.
func (w *mcdTCP) counts() counts {
	st := w.srv.Store().Stats()
	return counts{BankGets: st.CmdGet, BankSets: st.CmdSet, BankHits: st.GetHits, BankEvict: st.Evictions, BankBytes: st.Bytes, FabricB: w.moved}
}

func (w *mcdTCP) collect(v values, d counts, n float64) {
	v["mcd.hit_rate"] = ratio(float64(d.BankHits), float64(d.BankGets))
	v["mcd.evictions_per_op"] = float64(d.BankEvict) / n
	v["mcd.kb_per_op"] = float64(d.FabricB) / 1024 / n
	sorted := append([]int32(nil), w.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		return float64(sorted[i]) / 1e3
	}
	v["host_p50_us"] = at(0.50)
	v["host_p99_us"] = at(0.99)
}

func (w *mcdTCP) notes() []string {
	return []string{fmt.Sprintf("closed loop: 1 connection, %d keys Zipf(1.1), 90/10 get/set plus a set after each of %d misses; p99 has %d samples beyond it",
		w.nkeys, w.misses, len(w.lat)/100)}
}

// verify hands over what the timed loop checked on every get.
func (w *mcdTCP) verify(c *checker) {
	c.failed += w.check.failed
	c.reasons = append(c.reasons, w.check.reasons...)
	if len(w.lat) != w.nops {
		c.failN(int64(w.nops-len(w.lat)), "completed %d of %d round trips", len(w.lat), w.nops)
	}
}

func (w *mcdTCP) close() {
	if w.client != nil {
		_ = w.client.Close() // the daemon's Close below reports a socket left open
	}
	if w.srv != nil {
		if err := w.srv.Close(); err != nil {
			panic(fmt.Sprintf("mcd_tcp: close daemon: %v", err))
		}
	}
}
