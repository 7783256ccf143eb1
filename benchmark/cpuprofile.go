package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzip'd protobuf runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto), reading only what the
// layer fold needs: each sample's location stack and first value, each
// location's inlined function chain, and function names. It keeps the
// benchmark free of module dependencies.

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

var errProto = errors.New("cpuprofile: malformed profile")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// next returns the next field: its number, and either its varint value or
// its length-delimited bytes.
func (p *protoBuf) next() (field int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return 0, 0, nil, err
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errProto
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errProto
		}
		p.b = p.b[4:]
	default:
		return 0, 0, nil, errProto
	}
	return field, v, data, err
}

// repeated appends a repeated varint field's values, packed or not.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

type profSample struct {
	locs  []uint64 // leaf first
	value int64    // first value: the sample count
}

// cpuProfile is the decoded part of a profile.
type cpuProfile struct {
	samples []profSample
	// funcs maps a location id to its function names, innermost inlined
	// callee first.
	funcs map[uint64][]string
}

func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	var (
		prof     = &cpuProfile{funcs: make(map[uint64][]string)}
		strs     []string
		locFuncs = make(map[uint64][]uint64) // location id -> function ids
		funcName = make(map[uint64]uint64)   // function id -> string index
	)
	p := protoBuf{raw}
	for len(p.b) > 0 {
		field, _, data, err := p.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 2: // sample
			var s profSample
			var vals []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeated(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeated(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			prof.samples = append(prof.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, d, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := protoBuf{d}
					for len(l.b) > 0 {
						lf, lv, _, err := l.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			m := protoBuf{data}
			for len(m.b) > 0 {
				f, v, _, err := m.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, fn := range fns {
			if si := funcName[fn]; si < uint64(len(strs)) {
				names[i] = strs[si]
			}
		}
		prof.funcs[id] = names
	}
	return prof, nil
}

const internalPrefix = "imca/internal/"

// telemetryPkgs fold into the one "telemetry" layer.
var telemetryPkgs = map[string]bool{"telemetry": true, "optrace": true, "flight": true, "metrics": true}

// gcFuncs mark a stack with no imca frame as background collector work.
var gcFuncs = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcMarkDone", "runtime.gcMarkTermination"}

// layerOf attributes one stack to a layer: the innermost frame whose
// function is in imca/internal/<pkg> (so Go-map, malloc and memmove time
// lands on the layer that asked for it), else "gc" for the background
// collector, else "other" (scheduler, netpoll, the benchmark's own loop).
func (p *cpuProfile) layerOf(s profSample) string {
	gc := false
	for _, loc := range s.locs {
		for _, fn := range p.funcs[loc] {
			if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
				pkg := rest
				if i := strings.IndexAny(rest, "./"); i >= 0 {
					pkg = rest[:i]
				}
				if telemetryPkgs[pkg] {
					return "telemetry"
				}
				for _, l := range cpuLayers {
					if l == pkg {
						return pkg
					}
				}
				return "other" // cluster, xrand, bufpool, …: glue outside the layer list
			}
			for _, g := range gcFuncs {
				if strings.HasPrefix(fn, g) {
					gc = true
				}
			}
		}
	}
	if gc {
		return "gc"
	}
	return "other"
}

// foldCPU stores each layer's share of the profile's samples, in percent.
// The shares sum to 100 whenever the profile holds a sample.
func foldCPU(gz []byte, v values) error {
	prof, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	by := make(map[string]int64)
	var total int64
	for _, s := range prof.samples {
		by[prof.layerOf(s)] += s.value
		total += s.value
	}
	for _, l := range cpuLayers {
		v["cpu."+l+"_pct"] = 100 * ratio(float64(by[l]), float64(total))
	}
	v["cpu.samples"] = float64(total)
	return nil
}
