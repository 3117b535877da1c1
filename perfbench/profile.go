package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// Layers are named after the repository's modules. A CPU sample goes to
// the innermost pier/internal/<module> frame on its stack (allocation a
// layer does, garbage-collector assists included, stays with it); the
// collector's background workers go to gc; samples with neither go to
// other (runtime idle work, the profiler itself).
var moduleLayer = map[string]string{
	"sim":         "sim",
	"vri":         "sim",
	"overlay":     "overlay",
	"tuple":       "tuple",
	"wire":        "tuple",
	"exec":        "exec",
	"expr":        "exec",
	"qp":          "qp",
	"ufl":         "qp",
	"sqlfront":    "qp",
	"complist":    "qp",
	"experiments": "driver",
	"workload":    "driver",
	"metrics":     "driver",
}

// cpuLayers lists every layer a sample can land in, in report order.
var cpuLayers = []string{"sim", "overlay", "tuple", "exec", "qp", "gc", "driver", "other"}

// gcWorkers are the runtime entry points of the collector's own
// goroutines.
var gcWorkers = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// classify maps a sample's stack, innermost frame first, to its layer.
// hash reports a crypto/sha1 frame inside an overlay sample.
func classify(stack []string) (layer string, hash bool) {
	for _, fn := range stack {
		for _, w := range gcWorkers {
			if fn == w {
				return "gc", false
			}
		}
	}
	sha := false
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if pkg == "crypto/sha1" {
			sha = true
			continue
		}
		if pkg == "main" {
			return "driver", false
		}
		if mod, ok := strings.CutPrefix(pkg, "pier/internal/"); ok {
			if l, ok := moduleLayer[mod]; ok {
				return l, sha && l == "overlay"
			}
			return "other", false
		}
	}
	return "other", false
}

// funcPackage returns the import path of a symbol such as
// "pier/internal/overlay.(*router).stabilize.func1".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attributeProfile reads a CPU profile written by runtime/pprof through
// `go tool pprof -traces` and returns CPU seconds per layer as
// "<layer>.cpu_s", the SHA-1 share of overlay as "overlay.hash_cpu_s"
// and the total as "total.cpu_s".
func attributeProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	text, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", path, err, stderr.String())
	}
	samples, err := parseTraces(string(text))
	if err != nil {
		return nil, fmt.Errorf("read traces of %s: %w", path, err)
	}
	return attribute(samples), nil
}

func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{"overlay.hash_cpu_s": 0, "total.cpu_s": 0}
	for _, l := range cpuLayers {
		out[l+".cpu_s"] = 0
	}
	for _, s := range samples {
		sec := float64(s.cpuNanos) / 1e9
		layer, hash := classify(s.stack)
		out[layer+".cpu_s"] += sec
		out["total.cpu_s"] += sec
		if hash {
			out["overlay.hash_cpu_s"] += sec
		}
	}
	return out
}

// sample is one profile sample: CPU nanoseconds and the function names
// on its stack, innermost first (inlined frames included).
type sample struct {
	cpuNanos int64
	stack    []string
}

// parseTraces reads the text of `go tool pprof -traces -unit=ns`: a
// header, then one block per sample after a dashed separator line. A
// block's first line holds the sample's value and its innermost frame;
// each following line holds one caller.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	first := false
	for _, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "-----"):
			first = true
		case len(fields) == 0 || (!first && len(out) == 0):
			// Blank line or header.
		case first:
			ns, err := strconv.ParseInt(strings.TrimSuffix(fields[0], "ns"), 10, 64)
			if err != nil || !strings.HasSuffix(fields[0], "ns") || len(fields) < 2 {
				return nil, fmt.Errorf("bad sample line %q", line)
			}
			fn := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), fields[0]))
			out = append(out, sample{cpuNanos: ns, stack: []string{frameName(fn)}})
			first = false
		default:
			s := &out[len(out)-1]
			s.stack = append(s.stack, frameName(line))
		}
	}
	return out, nil
}

// frameName strips the indentation and pprof's inlining mark.
func frameName(s string) string {
	return strings.TrimSuffix(strings.TrimSpace(s), " (inline)")
}
