package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/tpcc"
)

// tpccShape sizes one TPC-C workload against the engine's caches.
type tpccShape struct {
	name       string
	warehouses int
	customers  int // per district
	items      int
	imrsBytes  int64
	bufPages   int
	// warmTxns transactions per client run before timing; for a
	// spilling shape warm-up also continues until pack has run
	// warmPackCycles cycles.
	warmTxns       int
	warmPackCycles int64
	// roundTxns is each client's transactions per round of the timed
	// phase, sized so that a round spans a second or more and so holds
	// whole Go GC cycles.
	roundTxns int
	// setups overrides setupRepeats for a set-up long enough to be
	// steadier and costly to repeat.
	setups int
}

var (
	// fitShape keeps every row in the IMRS: the loaded data plus the
	// growth of a run stays below the pack threshold (70% of the IMRS).
	fitShape = tpccShape{
		name: "tpcc-fit", warehouses: 8, customers: 60, items: 2000,
		imrsBytes: 1 << 30, bufPages: 4096, warmTxns: 1000, roundTxns: 3000,
	}
	// spillShape scales item/stock so NURand skew splits hot rows from
	// cold ones, with an IMRS far below the loaded data and a buffer
	// pool smaller than the page store.
	spillShape = tpccShape{
		name: "tpcc-spill", warehouses: 8, customers: 60, items: 20000,
		imrsBytes: 32 << 20, bufPages: 64, warmTxns: 1000, warmPackCycles: 20, roundTxns: 2000, setups: 3,
	}
)

// setupRepeats is how many times set-up runs per invocation of a
// workload whose set-up takes about a second; setup_s is the median and
// the last database is the one measured.
const setupRepeats = 5

const clients = 2

// heapRounds is the round of the timed phase after which live_heap_mb
// is read.
const heapRounds = 3

var tpccKinds = []string{"new-order", "payment", "order-status", "delivery", "stock-level"}

const (
	kNewOrder = iota
	kPayment
	kOrderStatus
	kDelivery
	kStockLevel
)

// tpccDB is one loaded TPC-C database and the benchmark's tally of what
// committed on it (the checker compares the database against it).
type tpccDB struct {
	db       *btrim.DB
	bench    *tpcc.Bench  // internal/tpcc's own profiles, run with --shared-warehouses
	shared   bool         // run bench's profiles instead of terms
	terms    []*terminal  // one per client
	payments atomic.Int64 // committed Payments since load
	histID   atomic.Int64 // last history row id handed out
	now      atomic.Int64 // logical clock stamped into orders and deliveries
}

func (s tpccShape) config(seed int64) tpcc.Config {
	return tpcc.Config{
		Warehouses:               s.warehouses,
		DistrictsPerW:            10,
		CustomersPerDistrict:     s.customers,
		Items:                    s.items,
		InitialOrdersPerDistrict: 20,
		Seed:                     seed,
	}
}

func (s tpccShape) open(seed int64, shared bool) (*tpccDB, error) {
	db, err := btrim.Open(btrim.Config{IMRSCacheBytes: s.imrsBytes, BufferPoolPages: s.bufPages})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	cfg := s.config(seed)
	b, err := tpcc.Load(db, cfg)
	if err != nil {
		db.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	t := &tpccDB{db: db, bench: b, shared: shared}
	for c := 0; c < clients; c++ {
		t.terms = append(t.terms, &terminal{t: t, cfg: cfg, home: homeWarehouses(s.warehouses, clients, c)})
	}
	return t, nil
}

// txn runs one transaction of the standard mix.
func (t *tpccDB) txn(c int, rng *rand.Rand) (int, error) {
	n := rng.Intn(100)
	kind := kStockLevel
	for k, acc := 0, 0; k < len(tpcc.Mix); k++ {
		acc += tpcc.Mix[k]
		if n < acc {
			kind = k
			break
		}
	}
	if t.shared {
		return kind, t.sharedTxn(kind, rng)
	}
	m := t.terms[c]
	var err error
	switch kind {
	case kNewOrder:
		err = m.newOrder(rng, t.now.Add(1))
	case kPayment:
		if err = m.payment(rng, t.now.Add(1)); err == nil {
			t.payments.Add(1)
		}
	case kOrderStatus:
		err = m.orderStatus(rng)
	case kDelivery:
		err = m.delivery(rng, t.now.Add(1))
	case kStockLevel:
		err = m.stockLevel(rng)
	}
	return kind, err
}

// sharedTxn runs one transaction with internal/tpcc's own profiles,
// which pick any warehouse, so both clients work on every warehouse.
func (t *tpccDB) sharedTxn(kind int, rng *rand.Rand) error {
	b := t.bench
	switch kind {
	case kNewOrder:
		return b.NewOrder(rng, t.now.Add(1))
	case kPayment:
		err := b.Payment(rng, t.now.Add(1))
		if err == nil {
			t.payments.Add(1)
		}
		return err
	case kOrderStatus:
		return b.OrderStatus(rng)
	case kDelivery:
		return b.Delivery(rng, t.now.Add(1))
	default:
		return b.StockLevel(rng)
	}
}

func classifyTPCC(err error) outcome {
	switch {
	case errors.Is(err, tpcc.ErrUserAbort):
		return userRollback
	case errors.Is(err, btrim.ErrLockTimeout), errors.Is(err, btrim.ErrTxnRetry):
		return contention
	default:
		return hardError
	}
}

// setupTPCC opens, loads and warms one database; it returns the
// database and the warm-up's own accounting.
func setupTPCC(s tpccShape, seed int64, shared bool) (*tpccDB, *phaseResult, error) {
	t, err := s.open(seed, shared)
	if err != nil {
		return nil, nil, err
	}
	warm := runPhase(phaseSpec{
		kinds: tpccKinds, clients: clients, roundTxns: s.warmTxns, maxRounds: 1,
		seed: seed*4 + 1, run: t.txn, classify: classifyTPCC,
	})
	// A spilling shape keeps warming, round by round, until pack has
	// cycled enough for IMRS utilization to sit at its steady target.
	for i := 0; s.warmPackCycles > 0 && t.db.Engine().Stats().PackCycles < s.warmPackCycles; i++ {
		if i == 200 {
			t.db.Close()
			return nil, nil, fmt.Errorf("warm-up: pack ran %d cycles after %d rounds, want %d",
				t.db.Engine().Stats().PackCycles, i, s.warmPackCycles)
		}
		more := runPhase(phaseSpec{
			kinds: tpccKinds, clients: clients, roundTxns: 500, maxRounds: 1,
			seed: seed*4 + 1 + int64(i+1)*1000, run: t.txn, classify: classifyTPCC,
		})
		warm.merge(more)
	}
	return t, warm, nil
}

// runTPCC runs a TPC-C workload: set up several times (timing each),
// run the timed phase on the last database, check it, and report.
func runTPCC(s tpccShape, rc runConfig) (*result, error) {
	setups := setupRepeats
	if s.setups > 0 {
		setups = s.setups
	}
	var warm *phaseResult
	t, setupS, err := repeatSetUp(setups, func() (*tpccDB, error) {
		t, w, err := setupTPCC(s, rc.seed, rc.sharedWarehouses)
		warm = w
		return t, err
	}, func(t *tpccDB) { t.db.Close() })
	if err != nil {
		return nil, err
	}
	defer t.db.Close()
	reportEnv(s.name, rc)
	logf("set-up: %d warehouses x 10 districts x %d customers, %d items; IMRS %d MB, buffer pool %d pages; clients %s",
		s.warehouses, s.customers, s.items, s.imrsBytes>>20, s.bufPages, clientMode(rc.sharedWarehouses))
	reportPhase("warm-up", warm)
	counters := func() engineCounters { return countersOf(t.db.Engine().Stats()) }
	shapeLine("after warm-up", counters())

	res, err := measure(phaseSpec{
		kinds: tpccKinds, clients: clients, roundTxns: s.roundTxns,
		minDur: time.Duration(rc.seconds) * time.Second,
		seed:   rc.seed*4 + 2, run: t.txn, classify: classifyTPCC,
	}, counters, nil, kPayment, median(setupS), rc)
	if err != nil {
		return nil, err
	}
	shapeLine("after timed phase", counters())

	violations, err := checkTPCCDB(t.db, t.payments.Load(), int64(s.warehouses*10*s.customers))
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	res.Correct = len(violations) == 0
	reportViolations(violations)
	return res, nil
}

// repeatSetUp runs setUp n times, closing every result but the last,
// and returns the last with each set-up's wall time net of host steal
// (netWall). The report gets the raw wall times too.
func repeatSetUp[T any](n int, setUp func() (T, error), closeDB func(T)) (T, []float64, error) {
	var (
		db         T
		raw, times []float64
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			closeDB(db)
		}
		start, c0 := time.Now(), readCPU()
		var err error
		if db, err = setUp(); err != nil {
			return db, nil, fmt.Errorf("set-up: %w", err)
		}
		wall := time.Since(start)
		raw = append(raw, wall.Seconds())
		times = append(times, netWall(wall, readCPU().sub(c0)).Seconds())
	}
	logf("set-up times %.3v s, net of host steal %.3v s", raw, times)
	return db, times, nil
}

// measure runs the timed phase: the traced run when asked for,
// otherwise the untraced phase that the end-to-end metrics come from.
// w is the wire workload's database, nil for the others; payKind is the
// index of Payments in spec.kinds.
func measure(spec phaseSpec, counters func() engineCounters, w *wireDB, payKind int, setupS float64, rc runConfig) (*result, error) {
	if rc.trace {
		return tracedRun(spec, counters, w, rc)
	}
	before := counters()
	rt0 := readRuntime()
	spec.heapRounds = heapRounds
	p := runPhase(spec)
	after := counters()
	rt := readRuntime().sub(rt0)
	reportPhase("timed", p)
	reportLatency(spec.kinds, p)
	logRuntime(rt, p.committed())
	return endToEnd(p, p.lat[payKind], after.sub(before), p.heapMB, setupS), nil
}

// merge folds another phase's accounting into p (warm-up rounds).
func (p *phaseResult) merge(o *phaseResult) {
	p.wall += o.wall
	p.rounds += o.rounds
	p.attempted += o.attempted
	for i := range p.counts {
		p.counts[i] += o.counts[i]
	}
	for e, n := range o.hard {
		p.hard[e] += n
	}
}

// endToEnd builds the untraced result from a timed phase.
func endToEnd(p *phaseResult, payLat []time.Duration, d engineCounters, heapMB, setupS float64) *result {
	c := float64(p.committed())
	if c == 0 {
		c = 1
	}
	return &result{
		Attempted: p.attempted,
		Failed:    p.failed(),
		Metrics: map[string]metric{
			"setup_s":           {setupS, "s"},
			"tps":               {p.tps(), "1/s"},
			"payment_p50_us":    {us(percentile(payLat, 50)), "us"},
			"cpu_us_per_txn":    {p.cpuPerTxn(), "us"},
			"log_bytes_per_txn": {float64(d.logBytes()) / c, "B"},
			"live_heap_mb":      {heapMB, "MB"},
		},
	}
}

func clientMode(shared bool) string {
	if shared {
		return "share every warehouse (internal/tpcc profiles)"
	}
	return "bound to home warehouses"
}

func reportViolations(v []string) {
	if len(v) == 0 {
		logf("check: database consistent")
		return
	}
	logf("check: %d violations", len(v))
	for i, s := range v {
		if i == 20 {
			logf("  ...")
			break
		}
		logf("  %s", s)
	}
}
