package main

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/btrim"
	"repro/internal/tpcc"
)

// The five TPC-C transaction profiles as internal/tpcc runs them, with
// one difference: each client is a terminal bound to its own home
// warehouses (as the TPC-C specification binds terminals), so two
// clients never touch the same warehouse, district, customer, stock or
// order rows. Only item, which is read-only, is shared.
//
// The reason is the known fault in core.Engine.Begin (README.md, "Known
// fault"): when both clients pick any warehouse, a snapshot read of a
// row the other client has just updated fails now and then, and how
// many fail differs from run to run (two 20 s tpcc-fit runs: 3 of
// 84 000 and 0 of 90 000). Runs of a benchmark are compared on their
// share of failed transactions, which must be the same in every run, so
// the gated workloads leave that sharing out. internal/tpcc's profiles
// take no warehouse argument, hence this copy; --shared-warehouses 1
// runs the package's own profiles over every warehouse, where the fault
// shows in the failed count. Once Begin reads the clock and registers
// the snapshot as one step, the copy can go.

// Column ordinals the profiles write (schema order, internal/tpcc).
const (
	colDName, colDTax                 = 2, 3
	colCDeliveryCnt                   = 9
	colSQuantity, colSYTD, colSOrdCnt = 2, 3, 4
	colOCarrierID                     = 5
	colOLIID                          = 4
	colIPrice                         = 2
	distPad                           = "xxxxxxxxxxxxxxxxxxxxxxxx" // 24 bytes, as the loader pads
)

// terminal runs the profiles for one client.
type terminal struct {
	t    *tpccDB
	cfg  tpcc.Config
	home []int64 // this client's warehouses
}

// homeWarehouses deals warehouses round-robin to clients.
func homeWarehouses(warehouses, clients, c int) []int64 {
	var ws []int64
	for w := c + 1; w <= warehouses; w += clients {
		ws = append(ws, int64(w))
	}
	return ws
}

func (m *terminal) warehouse(rng *rand.Rand) int64 { return m.home[rng.Intn(len(m.home))] }
func (m *terminal) district(rng *rand.Rand) int64  { return int64(1 + rng.Intn(m.cfg.DistrictsPerW)) }
func (m *terminal) customer(rng *rand.Rand) int64 {
	return int64(tpcc.NURand(rng, 1023, 1, m.cfg.CustomersPerDistrict))
}
func (m *terminal) item(rng *rand.Rand) int64 { return int64(tpcc.NURand(rng, 8191, 1, m.cfg.Items)) }

func i64(v int64) btrim.Value { return btrim.Int64(v) }

// newOrder reads the warehouse, allocates the district's next order id,
// inserts the order and its queue entry, and for 5-15 lines reads the
// item and updates its stock. 1% roll back on purpose.
func (m *terminal) newOrder(rng *rand.Rand, now int64) error {
	w, d, c := m.warehouse(rng), m.district(rng), m.customer(rng)
	olCnt := 5 + rng.Intn(11)
	abort := rng.Intn(100) == 0
	items := make([]int64, olCnt)
	for i := range items {
		items[i] = m.item(rng)
	}
	// Ordered stock access, as internal/tpcc does.
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	qty := make([]int64, olCnt)
	for i := range qty {
		qty[i] = int64(1 + rng.Intn(10))
	}
	return m.t.db.Update(func(tx *btrim.Tx) error {
		if _, ok, err := tx.Get(tpcc.TableWarehouse, i64(w)); err != nil || !ok {
			return fmt.Errorf("new-order: warehouse %d: found=%v err=%v", w, ok, err)
		}
		var oID int64
		if ok, err := tx.Update(tpcc.TableDistrict, []btrim.Value{i64(w), i64(d)},
			func(r btrim.Row) (btrim.Row, error) {
				oID = r[colDNextOID].Int()
				r[colDNextOID] = i64(oID + 1)
				return r, nil
			}); err != nil || !ok {
			return fmt.Errorf("new-order: district %d/%d: found=%v err=%v", w, d, ok, err)
		}
		if err := tx.Insert(tpcc.TableOrders, btrim.Values(
			i64(w), i64(d), i64(oID), i64(c), i64(now), i64(0), i64(int64(olCnt)))); err != nil {
			return err
		}
		if err := tx.Insert(tpcc.TableNewOrders, btrim.Values(i64(w), i64(d), i64(oID))); err != nil {
			return err
		}
		for ln, iid := range items {
			it, ok, err := tx.Get(tpcc.TableItem, i64(iid))
			if err != nil || !ok {
				return fmt.Errorf("new-order: item %d: found=%v err=%v", iid, ok, err)
			}
			q := qty[ln]
			if ok, err := tx.Update(tpcc.TableStock, []btrim.Value{i64(w), i64(iid)},
				func(r btrim.Row) (btrim.Row, error) {
					s := r[colSQuantity].Int()
					if s >= q+10 {
						s -= q
					} else {
						s = s - q + 91
					}
					r[colSQuantity] = i64(s)
					r[colSYTD] = btrim.Float64(r[colSYTD].Float() + float64(q))
					r[colSOrdCnt] = i64(r[colSOrdCnt].Int() + 1)
					return r, nil
				}); err != nil || !ok {
				return fmt.Errorf("new-order: stock %d/%d: found=%v err=%v", w, iid, ok, err)
			}
			if err := tx.Insert(tpcc.TableOrderLine, btrim.Values(
				i64(w), i64(d), i64(oID), i64(int64(ln+1)), i64(iid), i64(q),
				btrim.Float64(it[colIPrice].Float()*float64(q)), i64(0), btrim.String(distPad))); err != nil {
				return err
			}
		}
		if abort {
			return tpcc.ErrUserAbort
		}
		return nil
	})
}

// payment adds the amount to warehouse and district YTD, charges a
// customer (60% by id, 40% by last name) and appends a history row.
func (m *terminal) payment(rng *rand.Rand, now int64) error {
	w, d := m.warehouse(rng), m.district(rng)
	amount := 1 + rng.Float64()*4999
	byID := rng.Intn(100) < 60
	cid := m.customer(rng)
	last := tpcc.LastName(tpcc.NURand(rng, 255, 0, min(999, m.cfg.CustomersPerDistrict-1)))
	return m.t.db.Update(func(tx *btrim.Tx) error {
		if ok, err := tx.Update(tpcc.TableWarehouse, []btrim.Value{i64(w)},
			func(r btrim.Row) (btrim.Row, error) {
				r[colWYTD] = btrim.Float64(r[colWYTD].Float() + amount)
				return r, nil
			}); err != nil || !ok {
			return fmt.Errorf("payment: warehouse %d: found=%v err=%v", w, ok, err)
		}
		if ok, err := tx.Update(tpcc.TableDistrict, []btrim.Value{i64(w), i64(d)},
			func(r btrim.Row) (btrim.Row, error) {
				r[colDYTD] = btrim.Float64(r[colDYTD].Float() + amount)
				return r, nil
			}); err != nil || !ok {
			return fmt.Errorf("payment: district %d/%d: found=%v err=%v", w, d, ok, err)
		}
		c := cid
		if !byID {
			rows, err := tx.LookupAll(tpcc.TableCustomer, "customer_last", i64(w), i64(d), btrim.String(last))
			if err != nil {
				return err
			}
			if len(rows) > 0 {
				c = rows[len(rows)/2][colCID].Int()
			}
		}
		if ok, err := tx.Update(tpcc.TableCustomer, []btrim.Value{i64(w), i64(d), i64(c)},
			func(r btrim.Row) (btrim.Row, error) {
				r[colCBalance] = btrim.Float64(r[colCBalance].Float() - amount)
				r[colCYTDPayment] = btrim.Float64(r[colCYTDPayment].Float() + amount)
				r[colCPaymentCnt] = i64(r[colCPaymentCnt].Int() + 1)
				return r, nil
			}); err != nil || !ok {
			return fmt.Errorf("payment: customer %d/%d/%d: found=%v err=%v", w, d, c, ok, err)
		}
		return tx.Insert(tpcc.TableHistory, btrim.Values(
			i64(m.t.histID.Add(1)), i64(w), i64(d), i64(c), i64(now), btrim.Float64(amount), btrim.String(distPad)))
	})
}

// orderStatus reads a customer and its newest order's lines.
func (m *terminal) orderStatus(rng *rand.Rand) error {
	w, d, c := m.warehouse(rng), m.district(rng), m.customer(rng)
	return m.t.db.View(func(tx *btrim.Tx) error {
		if _, ok, err := tx.Get(tpcc.TableCustomer, i64(w), i64(d), i64(c)); err != nil || !ok {
			return fmt.Errorf("order-status: customer %d/%d/%d: found=%v err=%v", w, d, c, ok, err)
		}
		orders, err := tx.LookupAll(tpcc.TableOrders, "orders_customer", i64(w), i64(d), i64(c))
		if err != nil || len(orders) == 0 {
			return err
		}
		newest := orders[0]
		for _, o := range orders[1:] {
			if o[colOID].Int() > newest[colOID].Int() {
				newest = o
			}
		}
		for ln := int64(1); ln <= newest[colOOLCnt].Int(); ln++ {
			if _, ok, err := tx.Get(tpcc.TableOrderLine, i64(w), i64(d), newest[colOID], i64(ln)); err != nil || !ok {
				return fmt.Errorf("order-status: line %d/%d/%d/%d: found=%v err=%v", w, d, newest[colOID].Int(), ln, ok, err)
			}
		}
		return nil
	})
}

// delivery delivers the oldest queued order of every district of one
// warehouse: dequeue it, stamp its carrier and its lines' delivery
// date, and credit the customer with the lines' amounts.
func (m *terminal) delivery(rng *rand.Rand, now int64) error {
	w := m.warehouse(rng)
	carrier := int64(1 + rng.Intn(10))
	return m.t.db.Update(func(tx *btrim.Tx) error {
		for d := int64(1); d <= int64(m.cfg.DistrictsPerW); d++ {
			oldest := int64(-1)
			if err := tx.IndexScan(tpcc.TableNewOrders, "new_orders_pk", []btrim.Value{i64(w), i64(d)},
				func(r btrim.Row) bool {
					if r[colNOWID].Int() == w && r[colNODID].Int() == d {
						oldest = r[colNOOID].Int()
					}
					return false
				}); err != nil {
				return err
			}
			if oldest < 0 {
				continue
			}
			if ok, err := tx.Delete(tpcc.TableNewOrders, i64(w), i64(d), i64(oldest)); err != nil || !ok {
				return fmt.Errorf("delivery: new_order %d/%d/%d: found=%v err=%v", w, d, oldest, ok, err)
			}
			var cid, olCnt int64
			if ok, err := tx.Update(tpcc.TableOrders, []btrim.Value{i64(w), i64(d), i64(oldest)},
				func(r btrim.Row) (btrim.Row, error) {
					cid, olCnt = r[colOCID].Int(), r[colOOLCnt].Int()
					r[colOCarrierID] = i64(carrier)
					return r, nil
				}); err != nil || !ok {
				return fmt.Errorf("delivery: order %d/%d/%d: found=%v err=%v", w, d, oldest, ok, err)
			}
			total := 0.0
			for ln := int64(1); ln <= olCnt; ln++ {
				if ok, err := tx.Update(tpcc.TableOrderLine, []btrim.Value{i64(w), i64(d), i64(oldest), i64(ln)},
					func(r btrim.Row) (btrim.Row, error) {
						total += r[colOLAmount].Float()
						r[colOLDeliveryD] = i64(now)
						return r, nil
					}); err != nil || !ok {
					return fmt.Errorf("delivery: line %d/%d/%d/%d: found=%v err=%v", w, d, oldest, ln, ok, err)
				}
			}
			if ok, err := tx.Update(tpcc.TableCustomer, []btrim.Value{i64(w), i64(d), i64(cid)},
				func(r btrim.Row) (btrim.Row, error) {
					r[colCBalance] = btrim.Float64(r[colCBalance].Float() + total)
					r[colCDeliveryCnt] = i64(r[colCDeliveryCnt].Int() + 1)
					return r, nil
				}); err != nil || !ok {
				return fmt.Errorf("delivery: customer %d/%d/%d: found=%v err=%v", w, d, cid, ok, err)
			}
		}
		return nil
	})
}

// stockLevel counts distinct items of a district's last 20 orders whose
// stock is below a threshold (read-only).
func (m *terminal) stockLevel(rng *rand.Rand) error {
	w, d := m.warehouse(rng), m.district(rng)
	threshold := int64(10 + rng.Intn(11))
	return m.t.db.View(func(tx *btrim.Tx) error {
		dist, ok, err := tx.Get(tpcc.TableDistrict, i64(w), i64(d))
		if err != nil || !ok {
			return fmt.Errorf("stock-level: district %d/%d: found=%v err=%v", w, d, ok, err)
		}
		next := dist[colDNextOID].Int()
		seen := map[int64]bool{}
		low := 0
		for o := max(next-20, 1); o < next; o++ {
			ord, ok, err := tx.Get(tpcc.TableOrders, i64(w), i64(d), i64(o))
			if err != nil || !ok {
				return fmt.Errorf("stock-level: order %d/%d/%d: found=%v err=%v", w, d, o, ok, err)
			}
			for ln := int64(1); ln <= ord[colOOLCnt].Int(); ln++ {
				line, ok, err := tx.Get(tpcc.TableOrderLine, i64(w), i64(d), i64(o), i64(ln))
				if err != nil || !ok {
					return fmt.Errorf("stock-level: line %d/%d/%d/%d: found=%v err=%v", w, d, o, ln, ok, err)
				}
				iid := line[colOLIID].Int()
				if seen[iid] {
					continue
				}
				seen[iid] = true
				st, ok, err := tx.Get(tpcc.TableStock, i64(w), i64(iid))
				if err != nil || !ok {
					return fmt.Errorf("stock-level: stock %d/%d: found=%v err=%v", w, iid, ok, err)
				}
				if st[colSQuantity].Int() < threshold {
					low++
				}
			}
		}
		_ = low
		return nil
	})
}
