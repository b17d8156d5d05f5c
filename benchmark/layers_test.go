package main

import (
	"bytes"
	"io/fs"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// Every package of the repository must belong to a named layer.
func TestEveryReproPackageHasALayer(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := "repro"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		seen++
		if l := layerFor(pkg); l == "other" {
			t.Errorf("package %s maps to no named layer", pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen == 0 {
		t.Fatal("found no packages")
	}
}

func TestLayerFor(t *testing.T) {
	for pkg, want := range map[string]string{
		"repro/internal/core":           "core",
		"repro/btrim":                   "core",
		"repro/internal/storage/buffer": "storage",
		"repro/internal/index/btree":    "index",
		"repro/internal/imrsgc":         "imrsgc",
		"repro/internal/server":         "server",
		"repro/cmd/btrimd":              "tools",
		"repro/internal/brandnew":       "other", // unmapped: reported, not dropped
		"main":                          "workload",
		"runtime":                       "runtime",
		"internal/runtime/maps":         "runtime",
		"sync":                          "stdlib",
		"internal/poll":                 "stdlib",
		"github.com/x/y":                "other",
	} {
		if got := layerFor(pkg); got != want {
			t.Errorf("layerFor(%q) = %q, want %q", pkg, got, want)
		}
	}
	byLayer := selfCPUByLayer(map[string]int64{"repro/internal/brandnew": 5, "sync": 2, "repro/internal/wal": 3})
	if byLayer["other"] != 5 || byLayer["stdlib"] != 2 || byLayer["wal"] != 3 {
		t.Errorf("selfCPUByLayer = %v", byLayer)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/core.(*Txn).Get":           "repro/internal/core",
		"repro/internal/imrsgc.(*GC).worker.func1": "repro/internal/imrsgc",
		"runtime.mallocgc":                         "runtime",
		"main.(*tpccDB).txn":                       "main",
		"sync.(*Mutex).Lock":                       "sync",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var burnSink uint64

func burn(d time.Duration) {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	burnSink = x
}

// A real CPU profile decodes, and its samples land in this package's
// layer.
func TestLeafCPUDecodesAProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	burn(400 * time.Millisecond)
	pprof.StopCPUProfile()
	byPkg, err := leafCPU(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	byLayer := selfCPUByLayer(byPkg)
	var total int64
	for _, ns := range byLayer {
		total += ns
	}
	if total == 0 {
		t.Fatal("profile held no CPU samples")
	}
	if byLayer["workload"]*2 < total {
		t.Errorf("burn loop got %d of %d ns; by package %v", byLayer["workload"], total, byPkg)
	}
	if _, err := leafCPU([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
