package main

import (
	"bytes"
	"os"
	"strings"
	"time"
)

// cpuModel is the host's CPU model name, for the report's fingerprint.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

// hostCeilings measures what this machine can do at best, so per-layer rates
// read the same across hosts: a memory copy, and the byte search the scanner
// is built on. Best of five over a buffer larger than any cache.
func hostCeilings() map[string]float64 {
	const size = 64 << 20
	src, dst := make([]byte, size), make([]byte, size)
	for i := range src {
		src[i] = 'a'
	}
	best := func(f func()) float64 {
		var gbs float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			f()
			if r := size / 1e9 / time.Since(t).Seconds(); r > gbs {
				gbs = r
			}
		}
		return gbs
	}
	return map[string]float64{
		"host.memcpy_gb_s":    best(func() { copy(dst, src) }),
		"host.indexbyte_gb_s": best(func() { searched += bytes.IndexByte(src, '<') }),
	}
}

// searched takes the search results, so the calls cannot be optimised away.
var searched int
