package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// Per-layer self time comes from the traced run's CPU profile. Each sample
// is charged to the innermost frame that belongs to a layer: a package of
// this repository, the benchmark itself ("harness"), or net/http and net
// ("http"). Standard-library and runtime helpers a layer calls (allocation,
// map lookups, reading the clock, gob) are charged to that layer; samples
// with no layer frame at all (GC workers, the scheduler) are "runtime".

// layerOf returns the layer a function belongs to, or "" for code that
// runs on behalf of its caller.
func layerOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		pkg := fn[len("repro/internal/"):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		for _, l := range shareLayers {
			if l == pkg {
				return l
			}
		}
		return "other"
	case strings.HasPrefix(fn, "main."):
		return "harness"
	case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net."):
		return "http"
	}
	return ""
}

var errBadProfile = errors.New("malformed CPU profile")

// addShares reads a CPU profile and sets every "<layer>.share" metric to
// the layer's share of the profile's CPU time.
func addShares(path string, m map[string]float64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zr, err := gzip.NewReader(bufio.NewReader(f))
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	shares, err := layerShares(raw)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	for l, s := range shares {
		m[l+".share"] = s
	}
	return nil
}

// layerShares decodes an uncompressed profile.proto message and returns
// each layer's share of the samples' last value (CPU nanoseconds).
func layerShares(raw []byte) (map[string]float64, error) {
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string table index
		strs    []string
	)
	err := decodeFields(raw, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s sample
			err := decodeFields(data, func(field, wire int, v uint64, data []byte) (err error) {
				switch field {
				case 1:
					s.locs, err = appendUints(s.locs, wire, v, data)
				case 2:
					s.vals, err = appendUints(s.vals, wire, v, data)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := decodeFields(data, func(field, wire int, v uint64, data []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return decodeFields(data, func(field, wire int, v uint64, _ []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := decodeFields(data, func(field, wire int, v uint64, _ []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	byLayer := map[string]float64{}
	total := 0.0
	for _, s := range samples {
		if len(s.vals) == 0 {
			return nil, errBadProfile
		}
		w := float64(s.vals[len(s.vals)-1])
		layer := "runtime"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				i := fnName[fn]
				if i < 0 || i >= int64(len(strs)) {
					return nil, errBadProfile
				}
				if l := layerOf(strs[i]); l != "" {
					layer = l
					break walk
				}
			}
		}
		byLayer[layer] += w
		total += w
	}
	if total == 0 {
		return byLayer, nil
	}
	for l := range byLayer {
		byLayer[l] /= total
	}
	return byLayer, nil
}

// decodeFields calls fn for every field of a protobuf message: varints
// with v set, length-delimited fields with data set. Fixed-width fields
// are skipped; the profile format uses none this decoder reads.
func decodeFields(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errBadProfile
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return errBadProfile
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated varint field, packed or not.
func appendUints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, errBadProfile
		}
		dst, data = append(dst, x), data[n:]
	}
	return dst, nil
}

// processCPUNs is this process's user plus system CPU time.
func processCPUNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// procRSSMB reads a process's ("self" for this one) peak resident set
// (VmHWM) in MB, or 0 when /proc does not have it.
func procRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	return 0
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// procCPUNs reads a process's user plus system CPU time from
// /proc/<pid>/stat.
func procCPUNs(pid int) (int64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; the fields after it do not.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("unreadable /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// utime and stime are fields 14 and 15 of the line, 12 and 13 after ")".
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("unreadable /proc stat times")
	}
	return (ut + st) * (1e9 / clockTicks), nil
}
