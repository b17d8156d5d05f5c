package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// outcome classifies one attempted transaction.
type outcome int

const (
	committed    outcome = iota
	userRollback         // the 1% New-Order rollback the TPC-C specification asks for
	contention           // lock wait timeout or a row relocated under the transaction
	hardError            // anything else
)

// txnFunc runs one transaction for client c and reports its kind (an
// index into the phase's kinds) and error.
type txnFunc func(c int, rng *rand.Rand) (kind int, err error)

// phaseSpec describes one closed-loop phase: clients each run
// roundTxns transactions per round, rounds end together, and rounds are
// started until minDur has passed (fixed work per round, so every run
// attempts whole rounds).
type phaseSpec struct {
	kinds     []string
	clients   int
	roundTxns int
	minDur    time.Duration
	maxRounds int   // 0 = no cap besides minDur
	seed      int64 // client c draws from seed*64 + c
	run       txnFunc
	classify  func(error) outcome
	spans     *spanLog // non-nil records one span per transaction
	// heapRounds > 0 reads the live heap after that many rounds (or at
	// the end, if the phase stops sooner), so the reading follows a
	// fixed amount of work whatever the host's speed.
	heapRounds int
}

// phaseResult is what a phase measured.
type phaseResult struct {
	wall      time.Duration
	rounds    int
	attempted int64
	counts    [4]int64 // by outcome
	byKind    []kindCount
	hard      map[string]int64 // hard-error text -> count
	lat       [][]time.Duration
	cpu       cpuSample // deltas over the phase
	// Per round: committed transactions per second over wall time net
	// of host steal and over plain wall time (report only), and process
	// CPU per committed transaction in microseconds.
	roundTPS, roundRawTPS, roundCPU []float64
	heapMB                          float64 // see phaseSpec.heapRounds
}

// tps is the median of the rounds' throughputs, each over the round's
// wall time net of host steal (netWall), so that a stall of the host
// during one round moves it little.
func (p *phaseResult) tps() float64 { return median(p.roundTPS) }

// cpuPerTxn is the median of the rounds' CPU per committed transaction.
func (p *phaseResult) cpuPerTxn() float64 { return median(p.roundCPU) }

// kindCount counts one transaction kind's attempts and commits.
type kindCount struct{ attempted, committed int64 }

func (p *phaseResult) committed() int64 { return p.counts[committed] }

// failed counts every attempt that neither committed nor took the
// specification's user rollback.
func (p *phaseResult) failed() int64 { return p.counts[contention] + p.counts[hardError] }

// clientState is one client's private tallies (merged after the phase,
// so the hot loop shares nothing).
type clientState struct {
	rng    *rand.Rand
	counts [4]int64
	byKind []kindCount
	hard   map[string]int64
	lat    [][]time.Duration
	spans  []span
}

// runPhase drives spec and returns its measurements.
func runPhase(spec phaseSpec) *phaseResult {
	cs := make([]*clientState, spec.clients)
	for c := range cs {
		cs[c] = &clientState{
			rng:    rand.New(rand.NewSource(spec.seed*64 + int64(c))),
			byKind: make([]kindCount, len(spec.kinds)),
			hard:   map[string]int64{},
			lat:    make([][]time.Duration, len(spec.kinds)),
		}
	}
	before := readCPU()
	start := time.Now()
	rounds := 0
	var roundTPS, roundRawTPS, roundCPU []float64
	var heapMB float64
	for {
		r0, cpu0, done0 := time.Now(), readCPU(), committedSoFar(cs)
		var wg sync.WaitGroup
		for c := range cs {
			wg.Add(1)
			go func(c int, st *clientState) {
				defer wg.Done()
				for i := 0; i < spec.roundTxns; i++ {
					t0 := time.Now()
					kind, err := spec.run(c, st.rng)
					t1 := time.Now()
					st.byKind[kind].attempted++
					o := committed
					if err != nil {
						o = spec.classify(err)
					}
					st.counts[o]++
					switch o {
					case committed:
						st.byKind[kind].committed++
						st.lat[kind] = append(st.lat[kind], t1.Sub(t0))
						if spec.spans != nil {
							st.spans = append(st.spans, span{Name: spec.kinds[kind], Start: t0, End: t1})
						}
					case contention, hardError:
						st.hard[err.Error()]++
					}
				}
			}(c, cs[c])
		}
		wg.Wait()
		wall, d := time.Since(r0), readCPU().sub(cpu0)
		rounds++
		if n := committedSoFar(cs) - done0; n > 0 {
			roundTPS = append(roundTPS, float64(n)/netWall(wall, d).Seconds())
			roundRawTPS = append(roundRawTPS, float64(n)/wall.Seconds())
			roundCPU = append(roundCPU, us(d.total())/float64(n))
		}
		last := time.Since(start) >= spec.minDur || (spec.maxRounds > 0 && rounds >= spec.maxRounds)
		if spec.heapRounds > 0 && heapMB == 0 && (rounds == spec.heapRounds || last) {
			heapMB = liveHeapMB()
		}
		if last {
			break
		}
	}
	res := &phaseResult{wall: time.Since(start), rounds: rounds, hard: map[string]int64{},
		roundTPS: roundTPS, roundRawTPS: roundRawTPS, roundCPU: roundCPU, heapMB: heapMB}
	res.cpu = readCPU().sub(before)
	res.byKind = make([]kindCount, len(spec.kinds))
	res.lat = make([][]time.Duration, len(spec.kinds))
	for _, st := range cs {
		for o := range st.counts {
			res.counts[o] += st.counts[o]
			res.attempted += st.counts[o]
		}
		for k := range st.byKind {
			res.byKind[k].attempted += st.byKind[k].attempted
			res.byKind[k].committed += st.byKind[k].committed
			res.lat[k] = append(res.lat[k], st.lat[k]...)
		}
		for e, n := range st.hard {
			res.hard[e] += n
		}
		if spec.spans != nil {
			spec.spans.addAll(st.spans)
		}
	}
	for k := range res.lat {
		sortDurations(res.lat[k])
	}
	return res
}

// committedSoFar sums the clients' commits; only called between rounds,
// while no client runs.
func committedSoFar(cs []*clientState) int64 {
	var n int64
	for _, st := range cs {
		n += st.counts[committed]
	}
	return n
}

// cpuSample is the process's CPU time and the host's steal ticks.
type cpuSample struct {
	user, sys time.Duration
	steal     int64 // USER_HZ ticks summed over the host's CPUs, from /proc/stat; -1 if unreadable
	hostCPUs  int   // CPUs listed in /proc/stat
}

func (a cpuSample) sub(b cpuSample) cpuSample {
	steal := a.steal - b.steal
	if a.steal < 0 || b.steal < 0 {
		steal = -1
	}
	return cpuSample{user: a.user - b.user, sys: a.sys - b.sys, steal: steal, hostCPUs: a.hostCPUs}
}

func (a cpuSample) total() time.Duration { return a.user + a.sys }

// stolen is the time the hypervisor held back from an average CPU of
// the host over an interval (a delta), or 0 where /proc/stat is
// unreadable. USER_HZ is 100 on Linux.
func (a cpuSample) stolen() time.Duration {
	if a.steal <= 0 || a.hostCPUs == 0 {
		return 0
	}
	return time.Duration(a.steal) * 10 * time.Millisecond / time.Duration(a.hostCPUs)
}

// netWall is an interval's wall time net of host steal. On this kind of
// shared VM steal swings between runs from almost none to over 40% of
// each vCPU, and raw throughput swings with it: over one set of ten
// wire-payment seeds raw tps had a quartile spread of 27% of its
// median, more than any bound a metric may have, against 5% net of
// steal. So the wall times tps and setup_s divide by leave steal out.
// The cost is that steal a change itself causes, by parking and waking
// vCPUs more often, is not charged to tps; the report prints the steal
// and the raw figures beside it, and payment_p50_us (client-observed
// wall time) and cpu_us_per_txn still pay for such hand-offs.
func netWall(wall time.Duration, d cpuSample) time.Duration { return wall - d.stolen() }

func readCPU() cpuSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	steal, cpus := readSteal()
	return cpuSample{
		user:     time.Duration(ru.Utime.Nano()),
		sys:      time.Duration(ru.Stime.Nano()),
		steal:    steal,
		hostCPUs: cpus,
	}
}

// readSteal returns the host's cumulative steal ticks and its CPU
// count, or -1 ticks where /proc/stat is unreadable.
func readSteal() (int64, int) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return -1, 0
	}
	defer f.Close()
	steal, cpus := int64(-1), 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		switch {
		case len(fields) > 8 && fields[0] == "cpu":
			if n, err := strconv.ParseInt(fields[8], 10, 64); err == nil {
				steal = n
			}
		case len(fields) > 0 && strings.HasPrefix(fields[0], "cpu"):
			cpus++
		}
	}
	return steal, cpus
}

// reportPhase writes a phase's outcome accounting and per-kind latency
// to the report.
func reportPhase(label string, p *phaseResult) {
	logf("%s: %d rounds in %.3fs, attempted %d, committed %d, user rollbacks %d, contention aborts %d, hard errors %d",
		label, p.rounds, p.wall.Seconds(), p.attempted, p.counts[committed], p.counts[userRollback],
		p.counts[contention], p.counts[hardError])
	errs := make([]string, 0, len(p.hard))
	for e := range p.hard {
		errs = append(errs, e)
	}
	sort.Strings(errs)
	for _, e := range errs {
		logf("  failed x%d: %s", p.hard[e], e)
	}
	stealNote := fmt.Sprint(p.cpu.steal)
	if p.cpu.steal < 0 {
		stealNote = "unreadable"
	}
	logf("  cpu user %.3fs sys %.3fs, host steal ticks %s (%.3fs per CPU); tps %.1f over wall time, %.1f net of steal",
		p.cpu.user.Seconds(), p.cpu.sys.Seconds(), stealNote, p.cpu.stolen().Seconds(),
		float64(p.counts[committed])/p.wall.Seconds(), float64(p.counts[committed])/netWall(p.wall, p.cpu).Seconds())
	logf("  per-round tps %.0f", p.roundRawTPS)
	logf("  per-round tps net of steal %.0f", p.roundTPS)
}

// reportLatency writes each kind's median and tail with sample counts.
// The tail is p99 from 1000 samples and p90 from 100, so that at least
// ten samples lie beyond it; below 100 samples only the median is given.
func reportLatency(kinds []string, p *phaseResult) {
	for k, name := range kinds {
		s := p.lat[k]
		switch {
		case len(s) == 0:
			logf("  %-13s no commits", name)
		case len(s) >= 1000:
			logf("  %-13s p50 %8.1fus  p99 %9.1fus  (%d samples)", name, us(percentile(s, 50)), us(percentile(s, 99)), len(s))
		case len(s) >= 100:
			logf("  %-13s p50 %8.1fus  p90 %9.1fus  (%d samples)", name, us(percentile(s, 50)), us(percentile(s, 90)), len(s))
		default:
			logf("  %-13s p50 %8.1fus  (%d samples)", name, us(percentile(s, 50)), len(s))
		}
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// liveHeapMB forces a collection and returns the heap in use after it.
// Called between rounds, its pause falls outside every round's timing.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
