package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profiles of the processes under test (runtime/pprof in-process,
// /debug/pprof/profile on the servers) are gzipped profile.proto messages.
// This file decodes just enough of that format — samples, locations,
// functions and the string table — to fold each sample's CPU time onto the
// layer of its leaf function.

// layerOf maps a fully qualified Go function name to this repository's layer
// names (see README.md). Functions outside every named layer fold into
// "other"; the standard library's HTTP and JSON packages into "stdwire".
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	switch pkg {
	case "repro":
		return "service"
	case "repro/internal/experiments":
		return "experiments"
	case "repro/internal/runner":
		return "runner"
	case "repro/internal/dispatch":
		return "dispatch"
	case "repro/internal/journal":
		return "journal"
	case "repro/internal/sim":
		return "sim"
	case "repro/internal/cpu":
		return "cpu"
	case "repro/internal/memsys", "repro/internal/ring", "repro/internal/cache", "repro/internal/mem":
		return "memsys"
	case "repro/internal/dram":
		return "dram"
	case "repro/internal/accounting", "repro/internal/core", "repro/internal/dief":
		return "accounting"
	case "repro/internal/trace", "repro/internal/workload":
		return "trace"
	case "encoding/json", "net", "net/http", "net/http/httptrace", "net/textproto", "bufio", "mime":
		return "stdwire"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if strings.HasPrefix(pkg, "net/http/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/") {
		return "stdwire"
	}
	return "other"
}

// gcRoots are the runtime entry points whose samples are garbage-collector
// work (background marking and sweeping, and mark assists charged to
// allocating goroutines).
var gcRoots = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.markroot", "runtime.gcDrain", "runtime.sweepone",
	"runtime.gcStart", "runtime.gcMarkDone", "runtime.gcMarkTermination",
}

// profileFold is CPU time folded by layer, plus the garbage collector's share.
type profileFold struct {
	selfNanos map[string]int64
	gcNanos   int64
}

func newProfileFold() *profileFold { return &profileFold{selfNanos: map[string]int64{}} }

// add decodes one gzipped CPU profile and folds its samples into f.
func (f *profileFold) add(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	valueIdx := -1
	for i, st := range p.sampleTypes {
		if p.str(st) == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return errors.New("profile: no cpu sample type")
	}
	for _, s := range p.samples {
		if valueIdx >= len(s.values) || len(s.locs) == 0 {
			continue
		}
		nanos := s.values[valueIdx]
		funcs := p.locFuncs[s.locs[0]]
		if len(funcs) == 0 {
			f.selfNanos["other"] += nanos
			continue
		}
		f.selfNanos[layerOf(p.str(p.funcNames[funcs[0]]))] += nanos
		if p.isGC(s.locs) {
			f.gcNanos += nanos
		}
	}
	return nil
}

func (f *profileFold) seconds(layer string) float64 { return float64(f.selfNanos[layer]) / 1e9 }

type pSample struct {
	locs   []uint64
	values []int64
}

type decodedProfile struct {
	sampleTypes []int64 // string-table index of each sample type's name
	samples     []pSample
	locFuncs    map[uint64][]uint64 // location id → function ids, leaf first
	funcNames   map[uint64]int64    // function id → string-table index
	strings     []string
}

func (p *decodedProfile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

func (p *decodedProfile) isGC(locs []uint64) bool {
	for _, l := range locs {
		for _, fn := range p.locFuncs[l] {
			name := p.str(p.funcNames[fn])
			for _, root := range gcRoots {
				if strings.HasPrefix(name, root) {
					return true
				}
			}
		}
	}
	return false
}

func decodeProfile(b []byte) (*decodedProfile, error) {
	p := &decodedProfile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			var typ int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					typ = int64(v)
				}
				return nil
			})
			p.sampleTypes = append(p.sampleTypes, typ)
			return err
		case 2: // sample: location_id = 1, value = 2 (packed or not)
			var s pSample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					return appendVarints(w, v, d, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendVarints(w, v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id = 1, line = 4 {function_id = 1}
			var id uint64
			var funcs []uint64
			err := eachField(data, func(f, _ int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, _ int, lv uint64, _ []byte) error {
						if lf == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5: // function: id = 1, name = 2
			var id uint64
			var name int64
			err := eachField(data, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks the fields of one protobuf message, passing varint values
// in v and length-delimited payloads in data.
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints handles a repeated varint field in either encoding: one value
// per field (wire type 0) or a packed run (wire type 2).
func appendVarints(wire int, v uint64, data []byte, add func(uint64)) error {
	if wire == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		add(x)
		data = data[n:]
	}
	return nil
}
