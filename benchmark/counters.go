package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/core"
)

// engineCounters are the engine's public counters the benchmark reads,
// summed over shards. sub turns two readings into a phase's deltas; the
// gauges (imrsUsed, cold bytes, commit wait) keep the later reading.
type engineCounters struct {
	sysBytes, imrsBytes    int64
	journalBytes           int64 // sharded node's decision journal
	flushes                int64
	groupFlushes, grouped  int64
	commitWaitMean         time.Duration // lifetime mean over both logs (gauge)
	imrsAllocs, imrsUsed   int64
	imrsCapacity           int64
	gcPasses, gcVersions   int64
	hashHits, hashMisses   int64
	latchWaits, restarts   int64
	imrsOps, pageOps       int64
	rowsPacked, bytesPack  int64
	rowsSkipped, packCycle int64
	bufHits, bufMisses     int64
	rowsFrozen, unfreezes  int64
	coldRows               int64 // live cold-store rows (gauge)
	coldRaw, coldComp      int64 // gauges
	prepares               int64
	crossShard             int64
}

func (c engineCounters) logBytes() int64 { return c.sysBytes + c.imrsBytes + c.journalBytes }

// countersOf reads one engine snapshot.
func countersOf(s core.Snapshot) engineCounters {
	c := engineCounters{
		sysBytes:       s.SysLog.Bytes,
		imrsBytes:      s.IMRSLog.Bytes,
		flushes:        s.SysLog.Flushes + s.IMRSLog.Flushes,
		groupFlushes:   s.SysLog.GroupFlushes + s.IMRSLog.GroupFlushes,
		grouped:        s.SysLog.GroupedCommits + s.IMRSLog.GroupedCommits,
		commitWaitMean: max(s.SysLog.CommitWaitMean, s.IMRSLog.CommitWaitMean),
		imrsAllocs:     s.IMRSAllocs,
		imrsUsed:       s.IMRSUsedBytes,
		imrsCapacity:   s.IMRSCapacity,
		gcPasses:       s.GCPasses,
		gcVersions:     s.GCVersions,
		rowsPacked:     s.RowsPacked,
		bytesPack:      s.BytesPacked,
		rowsSkipped:    s.RowsSkipped,
		packCycle:      s.PackCycles,
		bufHits:        s.BufferHits,
		bufMisses:      s.BufferMisses,
		rowsFrozen:     s.ColdStore.RowsFrozen,
		unfreezes:      s.ColdStore.Unfreezes,
		coldRows:       s.ColdStore.RowsLive,
		coldRaw:        s.ColdStore.RawBytes,
		coldComp:       s.ColdStore.CompressedBytes,
		prepares:       s.TwoPC.Prepares,
	}
	for _, ix := range s.Indexes {
		c.hashHits += ix.HashHits
		c.hashMisses += ix.HashMisses
		c.latchWaits += ix.LatchWaits
		c.restarts += ix.Restarts
	}
	for _, p := range s.Partitions {
		c.imrsOps += p.IMRSInserts + p.IMRSSelects + p.IMRSUpdates + p.IMRSDeletes
		c.pageOps += p.PageOps
	}
	return c
}

// add sums two shards' readings.
func (c engineCounters) add(o engineCounters) engineCounters {
	return engineCounters{
		sysBytes: c.sysBytes + o.sysBytes, imrsBytes: c.imrsBytes + o.imrsBytes,
		journalBytes: c.journalBytes + o.journalBytes,
		flushes:      c.flushes + o.flushes,
		groupFlushes: c.groupFlushes + o.groupFlushes, grouped: c.grouped + o.grouped,
		commitWaitMean: max(c.commitWaitMean, o.commitWaitMean),
		imrsAllocs:     c.imrsAllocs + o.imrsAllocs, imrsUsed: c.imrsUsed + o.imrsUsed,
		imrsCapacity: c.imrsCapacity + o.imrsCapacity,
		gcPasses:     c.gcPasses + o.gcPasses, gcVersions: c.gcVersions + o.gcVersions,
		hashHits: c.hashHits + o.hashHits, hashMisses: c.hashMisses + o.hashMisses,
		latchWaits: c.latchWaits + o.latchWaits, restarts: c.restarts + o.restarts,
		imrsOps: c.imrsOps + o.imrsOps, pageOps: c.pageOps + o.pageOps,
		rowsPacked: c.rowsPacked + o.rowsPacked, bytesPack: c.bytesPack + o.bytesPack,
		rowsSkipped: c.rowsSkipped + o.rowsSkipped, packCycle: c.packCycle + o.packCycle,
		bufHits: c.bufHits + o.bufHits, bufMisses: c.bufMisses + o.bufMisses,
		rowsFrozen: c.rowsFrozen + o.rowsFrozen, unfreezes: c.unfreezes + o.unfreezes,
		coldRows: c.coldRows + o.coldRows,
		coldRaw:  c.coldRaw + o.coldRaw, coldComp: c.coldComp + o.coldComp,
		prepares:   c.prepares + o.prepares,
		crossShard: c.crossShard + o.crossShard,
	}
}

// sub returns the deltas from an earlier reading b; gauges keep c's.
func (c engineCounters) sub(b engineCounters) engineCounters {
	return engineCounters{
		sysBytes: c.sysBytes - b.sysBytes, imrsBytes: c.imrsBytes - b.imrsBytes,
		journalBytes: c.journalBytes - b.journalBytes,
		flushes:      c.flushes - b.flushes,
		groupFlushes: c.groupFlushes - b.groupFlushes, grouped: c.grouped - b.grouped,
		commitWaitMean: c.commitWaitMean,
		imrsAllocs:     c.imrsAllocs - b.imrsAllocs, imrsUsed: c.imrsUsed,
		imrsCapacity: c.imrsCapacity,
		gcPasses:     c.gcPasses - b.gcPasses, gcVersions: c.gcVersions - b.gcVersions,
		hashHits: c.hashHits - b.hashHits, hashMisses: c.hashMisses - b.hashMisses,
		latchWaits: c.latchWaits - b.latchWaits, restarts: c.restarts - b.restarts,
		imrsOps: c.imrsOps - b.imrsOps, pageOps: c.pageOps - b.pageOps,
		rowsPacked: c.rowsPacked - b.rowsPacked, bytesPack: c.bytesPack - b.bytesPack,
		rowsSkipped: c.rowsSkipped - b.rowsSkipped, packCycle: c.packCycle - b.packCycle,
		bufHits: c.bufHits - b.bufHits, bufMisses: c.bufMisses - b.bufMisses,
		rowsFrozen: c.rowsFrozen - b.rowsFrozen, unfreezes: c.unfreezes - b.unfreezes,
		coldRows: c.coldRows,
		coldRaw:  c.coldRaw, coldComp: c.coldComp,
		prepares:   c.prepares - b.prepares,
		crossShard: c.crossShard - b.crossShard,
	}
}

// imrsHitRate is the share of row operations served in the IMRS (the
// paper's "% operations in the IMRS").
func (c engineCounters) imrsHitRate() float64 { return ratio(c.imrsOps, c.imrsOps+c.pageOps) }

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// shapeLine prints the readings that show which side of a cache a run
// landed on. They are reported, not gated.
func shapeLine(label string, c engineCounters) {
	logf("shape %s: IMRS %.1f/%.0f MB, rows packed %d, pack cycles %d, buffer misses %d, cold rows %d, cross-shard commits %d, IMRS hit rate %.4f",
		label, float64(c.imrsUsed)/(1<<20), float64(c.imrsCapacity)/(1<<20), c.rowsPacked, c.packCycle,
		c.bufMisses, c.coldRows, c.crossShard, c.imrsHitRate())
}

// reportEnv prints the environment a run measured in.
func reportEnv(workload string, rc runConfig) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	logf("env: workload %s, seed %d, seconds %d, trace %v, %s, GOMAXPROCS %d, NumCPU %d, commit %s",
		workload, rc.seed, rc.seconds, rc.trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit)
}

// runtimeSample is a set of runtime/metrics readings.
type runtimeSample struct {
	allocObjects, allocBytes uint64
	gcCPU, mutexWait         float64 // seconds
	sched                    *metrics.Float64Histogram
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sync/mutex/wait/total:seconds",
	"/sched/latencies:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		mutexWait:    s[3].Value.Float64(),
		sched:        s[4].Value.Float64Histogram(),
	}
}

// sub returns deltas from an earlier sample, the scheduler-latency
// histogram included.
func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	h := &metrics.Float64Histogram{Buckets: a.sched.Buckets, Counts: make([]uint64, len(a.sched.Counts))}
	for i := range h.Counts {
		h.Counts[i] = a.sched.Counts[i] - b.sched.Counts[i]
	}
	return runtimeSample{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCPU:        a.gcCPU - b.gcCPU,
		mutexWait:    a.mutexWait - b.mutexWait,
		sched:        h,
	}
}

// schedP50 returns the median goroutine scheduling latency from the
// histogram, as the midpoint of the bucket holding it.
func (a runtimeSample) schedP50() time.Duration {
	var total uint64
	for _, n := range a.sched.Counts {
		total += n
	}
	if total == 0 {
		return 0
	}
	var acc uint64
	for i, n := range a.sched.Counts {
		acc += n
		if acc*2 >= total {
			lo, hi := a.sched.Buckets[i], a.sched.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			return time.Duration((lo + hi) / 2 * float64(time.Second))
		}
	}
	return 0
}

func logRuntime(rt runtimeSample, committedTxns int64) {
	c := float64(max(committedTxns, 1))
	logf("  runtime: %.1f allocs/txn, %.0f B allocated/txn, GC CPU %.1f us/txn, mutex wait %.2f us/txn, sched latency p50 %.1f us",
		float64(rt.allocObjects)/c, float64(rt.allocBytes)/c, rt.gcCPU*1e6/c, rt.mutexWait*1e6/c, us(rt.schedP50()))
}
