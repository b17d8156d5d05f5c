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

// leafCPU decodes a runtime/pprof CPU profile (gzipped profile.proto)
// and returns the CPU nanoseconds of its samples summed by the package
// of each sample's leaf function (the innermost inlined frame). Only
// the fields that needs are decoded.
func leafCPU(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFunc   = map[uint64]uint64{} // location id -> leaf function id
		funcName  = map[uint64]int64{}  // function id -> string index
		strs      []string
		valueType []int64 // string index of each sample_type's type
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					valueType = append(valueType, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendVarints(&s.locs, w, v, b)
				case 2:
					var u []uint64
					if err := appendVarints(&u, w, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id, fn uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line: the first entry is the innermost inlined frame
					if fn == 0 {
						return eachField(b, func(n, _ int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The CPU value is the sample type measured in nanoseconds.
	cpuIdx := -1
	for i, t := range valueType {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]int64{}
	for _, s := range samples {
		if len(s.locs) == 0 || cpuIdx >= len(s.values) {
			continue
		}
		name := ""
		if si := funcName[locFunc[s.locs[0]]]; si >= 0 && int(si) < len(strs) {
			name = strs[si]
		}
		out[packageOf(name)] += s.values[cpuIdx]
	}
	return out, nil
}

// packageOf returns the import path of a profiled function's package:
// "repro/internal/core.(*Txn).Get" -> "repro/internal/core".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, varint value (wire type 0) or bytes (wire type 2).
func eachField(b []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, wire, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
