package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/server"
	"repro/internal/sql"
)

// span is one timed interval. Transaction spans (one per transaction,
// named by kind) have no parent; engine-call spans name the engine
// transaction span that caused them.
type span struct {
	ID     uint64    `json:"id,omitempty"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) addAll(s []span) {
	l.mu.Lock()
	l.spans = append(l.spans, s...)
	l.mu.Unlock()
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineTracer records engine-call spans while on.
type engineTracer struct {
	on    atomic.Bool
	ids   atomic.Uint64
	spans spanLog
}

// tracedEngine is the sql.Engine handed to server.New in a traced run:
// it wraps every transaction so each engine call gets a span.
type tracedEngine struct {
	sql.Engine
	t *engineTracer
}

func (e *tracedEngine) Begin() sql.Txn {
	if !e.t.on.Load() {
		return e.Engine.Begin()
	}
	t0 := time.Now()
	tx := e.Engine.Begin()
	id := e.t.ids.Add(1)
	tt := &tracedTxn{Txn: tx, t: e.t, id: id, start: t0}
	tt.spans = append(tt.spans, span{ID: e.t.ids.Add(1), Parent: id, Name: "core.begin", Start: t0, End: time.Now()})
	return tt
}

// tracedTxn times each call into the engine. Its spans are kept on the
// transaction (one session goroutine uses it) and handed to the log
// when it ends.
type tracedTxn struct {
	sql.Txn
	t     *engineTracer
	id    uint64
	start time.Time
	spans []span
}

func (x *tracedTxn) rec(name string, t0 time.Time) {
	x.spans = append(x.spans, span{ID: x.t.ids.Add(1), Parent: x.id, Name: name, Start: t0, End: time.Now()})
}

func (x *tracedTxn) finish() {
	x.spans = append(x.spans, span{ID: x.id, Name: "engine.txn", Start: x.start, End: time.Now()})
	x.t.spans.addAll(x.spans)
}

func (x *tracedTxn) Insert(table string, r btrim.Row) error {
	t0 := time.Now()
	err := x.Txn.Insert(table, r)
	x.rec("core.insert", t0)
	return err
}

func (x *tracedTxn) Get(table string, pk ...btrim.Value) (btrim.Row, bool, error) {
	t0 := time.Now()
	r, ok, err := x.Txn.Get(table, pk...)
	x.rec("core.get", t0)
	return r, ok, err
}

func (x *tracedTxn) Update(table string, pk []btrim.Value, mutate func(btrim.Row) (btrim.Row, error)) (bool, error) {
	t0 := time.Now()
	ok, err := x.Txn.Update(table, pk, mutate)
	x.rec("core.update", t0)
	return ok, err
}

func (x *tracedTxn) Set(table string, pk []btrim.Value, newRow btrim.Row) (bool, error) {
	t0 := time.Now()
	ok, err := x.Txn.Set(table, pk, newRow)
	x.rec("core.update", t0)
	return ok, err
}

func (x *tracedTxn) Delete(table string, pk ...btrim.Value) (bool, error) {
	t0 := time.Now()
	ok, err := x.Txn.Delete(table, pk...)
	x.rec("core.delete", t0)
	return ok, err
}

func (x *tracedTxn) LookupAll(table, index string, vals ...btrim.Value) ([]btrim.Row, error) {
	t0 := time.Now()
	rows, err := x.Txn.LookupAll(table, index, vals...)
	x.rec("core.lookup", t0)
	return rows, err
}

func (x *tracedTxn) Commit() error {
	t0 := time.Now()
	err := x.Txn.Commit()
	x.rec("core.commit", t0)
	x.finish()
	return err
}

func (x *tracedTxn) Abort() {
	t0 := time.Now()
	x.Txn.Abort()
	x.rec("core.abort", t0)
	x.finish()
}

// tracedRun measures a workload's per-layer metrics. It first runs the
// timed phase untraced, for the overhead baseline, then again with
// spans, counters, runtime/metrics and a CPU profile.
func tracedRun(spec phaseSpec, counters func() engineCounters, w *wireDB, rc runConfig) (*result, error) {
	base := runPhase(spec)
	reportPhase("untraced", base)

	var srv0 server.Stats
	if w != nil {
		w.tracer.on.Store(true)
		srv0 = w.srv.Stats()
	}
	log := &spanLog{}
	spec.spans = log
	spec.seed++
	before := counters()
	rt0 := readRuntime()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p := runPhase(spec)
	pprof.StopCPUProfile()
	rt := readRuntime().sub(rt0)
	d := counters().sub(before)
	var srv server.Stats
	if w != nil {
		w.tracer.on.Store(false)
		srv = w.srv.Stats()
		w.tracer.spans.mu.Lock()
		log.addAll(w.tracer.spans.spans)
		w.tracer.spans.mu.Unlock()
	}
	reportPhase("traced", p)
	reportLatency(spec.kinds, p)
	logRuntime(rt, p.committed())
	if rc.spans != "" {
		if err := log.writeFile(rc.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		logf("spans: %d written to %s", len(log.spans), rc.spans)
	}

	byPkg, err := leafCPU(prof.Bytes())
	if err != nil {
		return nil, err
	}
	self := selfCPUByLayer(byPkg)
	c := float64(max(p.committed(), 1))
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	perTxn := func(n int64) float64 { return float64(n) / c }

	var sampled int64
	for _, l := range layers {
		sampled += self[l]
		put(l+".self_cpu_us_per_txn", float64(self[l])/1e3/c, "us")
	}
	// Whole-phase figures, not medians of rounds: the profile covers the
	// whole phase, so the reconciliation must too.
	cpu := us(p.cpu.total()) / c
	baseCPU := us(base.cpu.total()) / float64(max(base.committed(), 1))
	tps := float64(p.committed()) / netWall(p.wall, p.cpu).Seconds()
	baseTPS := float64(base.committed()) / netWall(base.wall, base.cpu).Seconds()
	put("trace.cpu_us_per_txn", cpu, "us")
	put("trace.sampled_cpu_us_per_txn", float64(sampled)/1e3/c, "us")
	put("trace.unattributed_cpu_us_per_txn", cpu-float64(sampled)/1e3/c, "us")
	put("trace.tps", tps, "1/s")
	put("trace.untraced_tps", baseTPS, "1/s")
	put("trace.untraced_cpu_us_per_txn", baseCPU, "us")
	put("trace.tps_overhead_pct", 100*(baseTPS-tps)/baseTPS, "%")
	put("trace.cpu_overhead_pct", 100*(cpu-baseCPU)/baseCPU, "%")

	// Front end and router (zero where the workload does not use them):
	// the transaction spans are client round trips only on wire-payment.
	var rtt []time.Duration
	var rttSum, engSum time.Duration
	calls := map[string][]time.Duration{}
	if w != nil {
		for _, s := range log.spans {
			switch {
			case s.Parent == 0 && s.Name != "engine.txn":
				rtt = append(rtt, s.dur())
				rttSum += s.dur()
			case s.Parent != 0:
				calls[s.Name] = append(calls[s.Name], s.dur())
				engSum += s.dur()
			}
		}
	}
	put("server.roundtrip_us", us(percentile(sortDurations(rtt), 50)), "us")
	put("server.frames_per_txn", float64(srv.BatchFrames-srv0.BatchFrames)/float64(max(p.attempted, 1)), "count")
	put("sql.plan_cache_hit_rate", ratio(srv.PlanCacheHits-srv0.PlanCacheHits,
		srv.PlanCacheHits-srv0.PlanCacheHits+srv.PlanCacheMisses-srv0.PlanCacheMisses), "ratio")
	put("sql.frontend_self_us_per_txn", us(rttSum-engSum)/c, "us")
	put("shard.cross_shard_per_txn", perTxn(d.crossShard), "count")
	put("shard.prepares_per_txn", perTxn(d.prepares), "count")
	meanUS := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return 0
		}
		var t time.Duration
		for _, x := range ds {
			t += x
		}
		return us(t) / float64(len(ds))
	}
	for _, n := range []string{"get", "update", "insert", "commit"} {
		put("core."+n+"_us", meanUS(calls["core."+n]), "us")
	}

	// Engine counters.
	put("runtime.mutex_wait_us_per_txn", rt.mutexWait*1e6/c, "us")
	put("imrs.allocs_per_txn", perTxn(d.imrsAllocs), "count")
	put("imrs.used_mb", float64(d.imrsUsed)/(1<<20), "MB")
	put("imrsgc.passes_per_txn", perTxn(d.gcPasses), "count")
	put("imrsgc.versions_per_txn", perTxn(d.gcVersions), "count")
	put("index.hash_hit_rate", ratio(d.hashHits, d.hashHits+d.hashMisses), "ratio")
	put("index.latch_waits_per_txn", perTxn(d.latchWaits), "count")
	put("index.restarts_per_txn", perTxn(d.restarts), "count")
	put("wal.flushes_per_txn", perTxn(d.flushes), "count")
	put("wal.group_size", ratio(d.grouped, d.groupFlushes), "count")
	put("wal.commit_wait_us", us(d.commitWaitMean), "us")
	put("wal.sys_bytes_per_txn", perTxn(d.sysBytes), "B")
	put("wal.imrs_bytes_per_txn", perTxn(d.imrsBytes), "B")
	put("wal.journal_bytes_per_txn", perTxn(d.journalBytes), "B")
	put("ilm.imrs_hit_rate", d.imrsHitRate(), "ratio")
	put("pack.rows_per_txn", perTxn(d.rowsPacked), "count")
	put("pack.bytes_per_txn", perTxn(d.bytesPack), "B")
	put("pack.useful_ratio", ratio(d.rowsPacked, d.rowsPacked+d.rowsSkipped), "ratio")
	put("pack.cycles", float64(d.packCycle), "count")
	put("buffer.hit_rate", ratio(d.bufHits, d.bufHits+d.bufMisses), "ratio")
	put("buffer.misses_per_txn", perTxn(d.bufMisses), "count")
	put("colseg.rows_frozen_per_txn", perTxn(d.rowsFrozen), "count")
	put("colseg.unfreezes_per_txn", perTxn(d.unfreezes), "count")
	put("colseg.compression_ratio", ratio(d.coldComp, d.coldRaw), "ratio")

	// Go runtime.
	put("runtime.allocs_per_txn", float64(rt.allocObjects)/c, "count")
	put("runtime.alloc_bytes_per_txn", float64(rt.allocBytes)/c, "B")
	put("runtime.gc_cpu_us_per_txn", rt.gcCPU*1e6/c, "us")
	put("runtime.sched_latency_p50_us", us(rt.schedP50()), "us")
	put("runtime.syscall_cpu_us_per_txn", us(p.cpu.sys)/c, "us")

	reportLayers(self, byPkg, sampled, p.cpu.total(), c)
	logf("tracing overhead: tps %.1f untraced vs %.1f traced; cpu %.1f vs %.1f us/txn", baseTPS, tps, baseCPU, cpu)
	return &result{Attempted: p.attempted, Failed: p.failed(), Metrics: m}, nil
}

// reportLayers prints the self-CPU split and its reconciliation with
// the process CPU the traced phase used.
func reportLayers(self, byPkg map[string]int64, sampled int64, cpu time.Duration, c float64) {
	names := append([]string(nil), layers...)
	sort.SliceStable(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	logf("self CPU by layer (leaf samples of the traced phase's CPU profile):")
	for _, l := range names {
		if self[l] == 0 {
			continue
		}
		logf("  %-9s %8.1f us/txn  %5.1f%%", l, float64(self[l])/1e3/c, 100*float64(self[l])/float64(max(sampled, 1)))
	}
	pkgs := make([]string, 0, len(byPkg))
	for p := range byPkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return byPkg[pkgs[i]] > byPkg[pkgs[j]] })
	for i, p := range pkgs {
		if i == 12 {
			break
		}
		logf("    %-32s %8.1f us/txn  (%s)", p, float64(byPkg[p])/1e3/c, layerFor(p))
	}
	logf("  sampled %.1f us/txn of %.1f us/txn process CPU; unattributed %.1f us/txn",
		float64(sampled)/1e3/c, us(cpu)/c, us(cpu)/c-float64(sampled)/1e3/c)
}
