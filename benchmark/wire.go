package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync/atomic"
	"time"

	"repro/btrim"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/tpcc"
	"repro/internal/wal"
)

// wireSize sizes the wire workload.
type wireSize struct {
	warehouses, districts, customers, shards int
	imrsBytes                                int64 // per shard
	warmTxns                                 int   // per client
	roundTxns                                int   // per client per timed round (see tpccShape)
}

// wireShape is the wire-payment workload's size. The data fits in every
// shard's IMRS, so the front end, the router and 2PC are what it
// measures.
var wireShape = wireSize{warehouses: 8, districts: 10, customers: 300, shards: 4, imrsBytes: 256 << 20, warmTxns: 1000, roundTxns: 6000}

func (s wireSize) customerRows() int64 { return int64(s.warehouses * s.districts * s.customers) }

var wireKinds = []string{"payment", "balance"}

const (
	kWirePayment = iota
	kWireBalance
)

// The prepared statements a connection sends. A Payment is BEGIN, the
// four binds and COMMIT in one frame; a balance check is one bind.
var wireStmts = []struct{ name, text string }{
	{"pay_w", "UPDATE warehouse SET w_ytd = w_ytd + ? WHERE w_id = ?"},
	{"pay_d", "UPDATE district SET d_ytd = d_ytd + ? WHERE d_w_id = ? AND d_id = ?"},
	{"pay_c", "UPDATE customer SET c_balance = c_balance - ?, c_ytd_payment = c_ytd_payment + ?, " +
		"c_payment_cnt = c_payment_cnt + 1 WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},
	{"pay_h", "INSERT INTO history VALUES (?, ?, ?, ?, ?, ?, 'pay')"},
	{"bal", "SELECT c_balance, c_payment_cnt FROM customer WHERE c_w_id = ? AND c_d_id = ? AND c_id = ?"},
}

// wireDB is one loaded sharded node served over loopback TCP.
type wireDB struct {
	size     wireSize
	db       *btrim.ShardedDB
	journal  *wal.MemBackend
	srv      *server.Server
	served   chan error
	conns    []*wireConn
	payments atomic.Int64 // Payments the clients saw commit
	histID   atomic.Int64
	badRows  atomic.Int64 // balance checks that did not return exactly one row
	tracer   *engineTracer
}

// wireConn is one client connection.
type wireConn struct {
	c *server.Client
	p *server.Pipeline
}

var wireTables = []btrim.TableSpec{
	{Name: tpcc.TableWarehouse, PrimaryKey: []string{"w_id"}, Columns: []btrim.Column{
		{Name: "w_id", Type: btrim.Int64Type}, {Name: "w_name", Type: btrim.StringType},
		{Name: "w_tax", Type: btrim.Float64Type}, {Name: "w_ytd", Type: btrim.Float64Type}}},
	{Name: tpcc.TableDistrict, PrimaryKey: []string{"d_w_id", "d_id"}, Columns: []btrim.Column{
		{Name: "d_w_id", Type: btrim.Int64Type}, {Name: "d_id", Type: btrim.Int64Type},
		{Name: "d_name", Type: btrim.StringType}, {Name: "d_tax", Type: btrim.Float64Type},
		{Name: "d_ytd", Type: btrim.Float64Type}, {Name: "d_next_o_id", Type: btrim.Int64Type}}},
	{Name: tpcc.TableCustomer, PrimaryKey: []string{"c_w_id", "c_d_id", "c_id"}, Columns: []btrim.Column{
		{Name: "c_w_id", Type: btrim.Int64Type}, {Name: "c_d_id", Type: btrim.Int64Type},
		{Name: "c_id", Type: btrim.Int64Type}, {Name: "c_first", Type: btrim.StringType},
		{Name: "c_last", Type: btrim.StringType}, {Name: "c_credit", Type: btrim.StringType},
		{Name: "c_balance", Type: btrim.Float64Type}, {Name: "c_ytd_payment", Type: btrim.Float64Type},
		{Name: "c_payment_cnt", Type: btrim.Int64Type}, {Name: "c_delivery_cnt", Type: btrim.Int64Type},
		{Name: "c_data", Type: btrim.StringType}}},
	{Name: tpcc.TableHistory, PrimaryKey: []string{"h_id"}, Columns: []btrim.Column{
		{Name: "h_id", Type: btrim.Int64Type}, {Name: "h_c_w_id", Type: btrim.Int64Type},
		{Name: "h_c_d_id", Type: btrim.Int64Type}, {Name: "h_c_id", Type: btrim.Int64Type},
		{Name: "h_date", Type: btrim.Int64Type}, {Name: "h_amount", Type: btrim.Float64Type},
		{Name: "h_data", Type: btrim.StringType}}},
}

// openWire opens the node, loads it, starts the server and connects and
// prepares the clients. With trace set, the server executes through an
// engine wrapper that records a span around every engine call.
func openWire(s wireSize, seed int64, trace bool) (*wireDB, error) {
	base := core.DefaultConfig()
	base.IMRSCacheBytes = s.imrsBytes
	w := &wireDB{size: s, journal: wal.NewMemBackend(), served: make(chan error, 1)}
	node, err := shard.Open(shard.Config{Shards: s.shards, Base: base, JournalBackend: w.journal})
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	w.db = btrim.WrapNode(node)
	if err := w.load(seed); err != nil {
		w.db.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	var eng sql.Engine = sql.WrapSharded(w.db)
	if trace {
		w.tracer = &engineTracer{}
		eng = &tracedEngine{Engine: eng, t: w.tracer}
	}
	w.srv = server.New(eng)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.db.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	go func() { w.served <- w.srv.Serve(ln) }()
	for c := 0; c < clients; c++ {
		cl, err := server.Dial(ln.Addr().String())
		if err != nil {
			w.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		conn := &wireConn{c: cl, p: cl.Pipeline()}
		w.conns = append(w.conns, conn)
		for _, ps := range wireStmts {
			conn.p.QueuePrepare(ps.name, ps.text)
		}
		res, err := conn.p.Run()
		if err != nil {
			w.close()
			return nil, fmt.Errorf("prepare: %w", err)
		}
		for i, r := range res {
			if r.Err != nil {
				w.close()
				return nil, fmt.Errorf("prepare %s: %w", wireStmts[i].name, r.Err)
			}
		}
	}
	return w, nil
}

// load creates the four tables a Payment touches and fills them, one
// transaction per warehouse.
func (w *wireDB) load(seed int64) error {
	s := w.size
	for _, spec := range wireTables {
		if err := w.db.CreateTable(spec); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pad := strings.Repeat("x", 64)
	for wh := int64(1); wh <= int64(s.warehouses); wh++ {
		if err := w.db.Update(func(tx *btrim.STx) error {
			if err := tx.Insert(tpcc.TableWarehouse, btrim.Values(i64(wh), btrim.String(fmt.Sprintf("wh-%03d", wh)),
				btrim.Float64(rng.Float64()*0.2), btrim.Float64(30000*float64(s.districts)))); err != nil {
				return err
			}
			for d := int64(1); d <= int64(s.districts); d++ {
				if err := tx.Insert(tpcc.TableDistrict, btrim.Values(i64(wh), i64(d), btrim.String(fmt.Sprintf("dist-%d-%d", wh, d)),
					btrim.Float64(rng.Float64()*0.2), btrim.Float64(30000), i64(1))); err != nil {
					return err
				}
				for c := int64(1); c <= int64(s.customers); c++ {
					if err := tx.Insert(tpcc.TableCustomer, btrim.Values(i64(wh), i64(d), i64(c),
						btrim.String(fmt.Sprintf("first-%d", c)), btrim.String(tpcc.LastName(int(c-1)%1000)),
						btrim.String("GC"), btrim.Float64(-10), btrim.Float64(initialCustomerYTD),
						i64(initialCustomerPayments), i64(0), btrim.String(pad))); err != nil {
						return err
					}
				}
			}
			return nil
		}); err != nil {
			return fmt.Errorf("warehouse %d: %w", wh, err)
		}
	}
	return nil
}

// txn runs one transaction for client c: 90% Payments, 10% balance
// checks, as cmd/tpccbench's server mode mixes them. Both clients pick
// any warehouse, so two Payments on one warehouse wait for each other's
// row locks, held through 2PC.
func (w *wireDB) txn(c int, rng *rand.Rand) (int, error) {
	conn := w.conns[c]
	s := w.size
	wh := int64(1 + rng.Intn(s.warehouses))
	d := int64(1 + rng.Intn(s.districts))
	cid := int64(tpcc.NURand(rng, 1023, 1, s.customers))
	if rng.Intn(10) == 0 {
		res, err := conn.p.QueueExecute("bal", i64(wh), i64(d), i64(cid)).Run()
		if err != nil {
			return kWireBalance, err
		}
		if res[0].Err != nil {
			return kWireBalance, res[0].Err
		}
		if err := checkBalanceRows(res[0].Res.Rows); err != nil {
			w.badRows.Add(1)
		}
		return kWireBalance, nil
	}
	amt := btrim.Float64(1 + rng.Float64()*4999)
	p := conn.p
	p.Queue("BEGIN")
	p.QueueExecute("pay_w", amt, i64(wh))
	p.QueueExecute("pay_d", amt, i64(wh), i64(d))
	p.QueueExecute("pay_c", amt, amt, i64(wh), i64(d), i64(cid))
	p.QueueExecute("pay_h", i64(w.histID.Add(1)), i64(wh), i64(d), i64(cid), i64(time.Now().Unix()), amt)
	p.Queue("COMMIT")
	res, err := p.Run()
	if err != nil {
		return kWirePayment, err
	}
	for i, r := range res {
		if r.Err == nil && i >= 1 && i <= 3 && r.Res.Affected != 1 {
			r.Err = fmt.Errorf("%s updated %d rows, want 1", wireStmts[i-1].name, r.Res.Affected)
		}
		if r.Err != nil {
			// The server aborted at the failure point; clear the
			// aborted block so the connection stays usable.
			if _, rerr := conn.c.Exec("ROLLBACK"); rerr != nil {
				return kWirePayment, fmt.Errorf("%v; rollback: %w", r.Err, rerr)
			}
			return kWirePayment, r.Err
		}
	}
	w.payments.Add(1)
	return kWirePayment, nil
}

func classifyWire(err error) outcome {
	if errors.Is(err, btrim.ErrLockTimeout) || errors.Is(err, btrim.ErrTxnRetry) {
		return contention
	}
	return hardError
}

// counters sums every shard's engine counters, the decision journal
// and the node's cross-shard commits.
func (w *wireDB) counters() engineCounters {
	var c engineCounters
	node := w.db.Node()
	for i := 0; i < node.NumShards(); i++ {
		c = c.add(countersOf(node.Engine(i).Stats()))
	}
	c.journalBytes, _ = w.journal.Size() // MemBackend.Size never fails
	c.crossShard = node.Counters().CrossShardCommits
	return c
}

// close stops the clients and the server, then closes the node.
func (w *wireDB) close() {
	w.quiesce()
	w.db.Close()
}

// quiesce closes the client connections and shuts the server down,
// waiting for its sessions to end.
func (w *wireDB) quiesce() {
	if w.srv == nil {
		return
	}
	for _, c := range w.conns {
		c.c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		logf("server shutdown: %v", err)
	}
	if err := <-w.served; err != nil && !errors.Is(err, net.ErrClosed) {
		logf("server: %v", err)
	}
	w.srv = nil
}

func setupWire(seed int64, trace bool) (*wireDB, *phaseResult, error) {
	w, err := openWire(wireShape, seed, trace)
	if err != nil {
		return nil, nil, err
	}
	warm := runPhase(phaseSpec{
		kinds: wireKinds, clients: clients, roundTxns: wireShape.warmTxns, maxRounds: 1,
		seed: seed*4 + 1, run: w.txn, classify: classifyWire,
	})
	return w, warm, nil
}

// runWire runs the wire-payment workload.
func runWire(rc runConfig) (*result, error) {
	var warm *phaseResult
	w, setupS, err := repeatSetUp(setupRepeats, func() (*wireDB, error) {
		w, p, err := setupWire(rc.seed, rc.trace)
		warm = p
		return w, err
	}, (*wireDB).close)
	if err != nil {
		return nil, err
	}
	defer w.close()
	s := wireShape
	reportEnv("wire-payment", rc)
	logf("set-up: %d shards, %d warehouses x %d districts x %d customers; IMRS %d MB per shard",
		s.shards, s.warehouses, s.districts, s.customers, s.imrsBytes>>20)
	reportPhase("warm-up", warm)
	shapeLine("after warm-up", w.counters())

	res, err := measure(phaseSpec{
		kinds: wireKinds, clients: clients, roundTxns: s.roundTxns,
		minDur: time.Duration(rc.seconds) * time.Second,
		seed:   rc.seed*4 + 2, run: w.txn, classify: classifyWire,
	}, w.counters, w, kWirePayment, median(setupS), rc)
	if err != nil {
		return nil, err
	}
	w.quiesce()
	shapeLine("after timed phase", w.counters())

	var violations []string
	err = w.db.View(func(tx *btrim.STx) error {
		var err error
		violations, err = checkWire(tx, w.payments.Load(), s.customerRows())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	if n := w.badRows.Load(); n > 0 {
		violations = append(violations, fmt.Sprintf("%d balance checks did not return exactly one row", n))
	}
	res.Correct = len(violations) == 0
	reportViolations(violations)
	return res, nil
}
