package main

import "strings"

// layers names the layers self CPU is reported for, in report order.
// Each repro package belongs to exactly one of them (layerFor).
var layers = []string{
	"server", "sql", "shard", "core", "txn", "imrs", "imrsgc", "index", "wal",
	"ilm", "pack", "storage", "workload", "tools", "runtime", "stdlib", "other",
}

// reproLayers maps repro packages, and the packages beneath them, to
// layers. A package under none of these and not under cmd/ or
// examples/ falls to "other", so a new package shows up in the report
// instead of vanishing from it.
var reproLayers = map[string]string{
	"repro/internal/server":  "server",
	"repro/internal/sql":     "sql",
	"repro/internal/shard":   "shard",
	"repro/btrim":            "core",
	"repro/internal/core":    "core",
	"repro/internal/catalog": "core",
	"repro/internal/row":     "core",
	"repro/internal/metrics": "core",
	"repro/internal/txn":     "txn",
	"repro/internal/imrs":    "imrs",
	"repro/internal/rid":     "imrs",
	"repro/internal/ridmap":  "imrs",
	"repro/internal/imrsgc":  "imrsgc",
	"repro/internal/index":   "index",
	"repro/internal/wal":     "wal",
	"repro/internal/ilm":     "ilm",
	"repro/internal/pack":    "pack",
	"repro/internal/storage": "storage",
	"repro/internal/tpcc":    "workload",
	"repro/benchmark":        "workload",
	"repro/internal/harness": "tools",
	"repro/internal/chaos":   "tools",
	"repro/internal/fault":   "tools",
	"repro/internal/cli":     "tools",
}

// layerFor maps a package import path, as a CPU profile names it, to a
// layer. The benchmark's own main package is "main" in profiles.
func layerFor(pkg string) string {
	switch {
	case pkg == "main":
		return "workload"
	case pkg == "repro":
		return "tools" // the root package holds only documentation and tests
	case strings.HasPrefix(pkg, "repro/"):
		// A package inherits its nearest mapped ancestor's layer
		// (internal/storage/buffer is storage).
		for p := pkg; ; p = p[:strings.LastIndexByte(p, '/')] {
			if l, ok := reproLayers[p]; ok {
				return l
			}
			if !strings.Contains(p, "/") {
				break
			}
		}
		if strings.HasPrefix(pkg, "repro/cmd/") || strings.HasPrefix(pkg, "repro/examples/") {
			return "tools"
		}
		return "other"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg != "" && !strings.Contains(strings.SplitN(pkg, "/", 2)[0], "."):
		return "stdlib"
	default:
		return "other"
	}
}

// selfCPUByLayer folds per-package CPU into layers.
func selfCPUByLayer(byPkg map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for pkg, ns := range byPkg {
		out[layerFor(pkg)] += ns
	}
	return out
}
