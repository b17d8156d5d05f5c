package main

import (
	"sort"
	"strings"
	"testing"

	"repro/btrim"
	"repro/internal/tpcc"
)

// smallTPCC is a TPC-C shape small enough for a test.
var smallTPCC = tpccShape{name: "test", warehouses: 2, customers: 20, items: 200, imrsBytes: 64 << 20, bufPages: 256}

// loadedTPCC opens a small database and runs part of the mix on it.
func loadedTPCC(t *testing.T) *tpccDB {
	t.Helper()
	db, err := smallTPCC.open(7, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.db.Close() })
	p := runPhase(phaseSpec{kinds: tpccKinds, clients: clients, roundTxns: 400, maxRounds: 1, seed: 7,
		run: db.txn, classify: classifyTPCC})
	if p.failed() != 0 {
		t.Fatalf("%d transactions failed: %v", p.failed(), p.hard)
	}
	if p.byKind[kDelivery].committed == 0 || p.byKind[kPayment].committed == 0 {
		t.Fatalf("mix too small: %+v", p.byKind)
	}
	return db
}

// TestCheckersPassOnPackageProfiles runs internal/tpcc's own profiles
// (the --shared-warehouses mode) from one client, which cannot meet the
// known fault, and sees the checkers pass: the checkers hold for the
// package's profiles as well as for the home-warehouse terminals.
func TestCheckersPassOnPackageProfiles(t *testing.T) {
	db, err := smallTPCC.open(7, true)
	if err != nil {
		t.Fatal(err)
	}
	defer db.db.Close()
	p := runPhase(phaseSpec{kinds: tpccKinds, clients: 1, roundTxns: 800, maxRounds: 1, seed: 7,
		run: db.txn, classify: classifyTPCC})
	if p.failed() != 0 {
		t.Fatalf("%d transactions failed: %v", p.failed(), p.hard)
	}
	if p.byKind[kDelivery].committed == 0 || p.byKind[kPayment].committed == 0 {
		t.Fatalf("mix too small: %+v", p.byKind)
	}
	if v := checkLoaded(t, db); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func checkLoaded(t *testing.T, db *tpccDB) []string {
	t.Helper()
	v, err := checkTPCCDB(db.db, db.payments.Load(), int64(smallTPCC.warehouses*10*smallTPCC.customers))
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func update(t *testing.T, db *btrim.DB, table string, pk []btrim.Value, f func(btrim.Row)) {
	t.Helper()
	if err := db.Update(func(tx *btrim.Tx) error {
		ok, err := tx.Update(table, pk, func(r btrim.Row) (btrim.Row, error) { f(r); return r, nil })
		if err == nil && !ok {
			t.Fatalf("%s %v: no such row", table, pk)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

func del(t *testing.T, db *btrim.DB, table string, pk ...btrim.Value) {
	t.Helper()
	if err := db.Update(func(tx *btrim.Tx) error {
		ok, err := tx.Delete(table, pk...)
		if err == nil && !ok {
			t.Fatalf("%s %v: no such row", table, pk)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// newOrderRange returns a district's queued order ids, lowest first.
func newOrderRange(t *testing.T, db *btrim.DB, w, d int64) []int64 {
	t.Helper()
	var ids []int64
	if err := db.View(func(tx *btrim.Tx) error {
		return tx.Scan(tpcc.TableNewOrders, func(r btrim.Row) bool {
			if r[colNOWID].Int() == w && r[colNODID].Int() == d {
				ids = append(ids, r[colNOOID].Int())
			}
			return true
		})
	}); err != nil {
		t.Fatal(err)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	if len(ids) < 3 {
		t.Fatalf("district %d/%d has %d queued orders, want at least 3", w, d, len(ids))
	}
	return ids
}

func TestCheckTPCCPassesOnARealRun(t *testing.T) {
	db := loadedTPCC(t)
	if v := checkLoaded(t, db); len(v) != 0 {
		t.Fatalf("violations on an untouched run: %v", v)
	}
}

// Each case plants one violation and expects the checker to name it.
func TestCheckTPCCCatchesPlantedViolations(t *testing.T) {
	w1, d1 := i64(1), i64(1)
	cases := []struct {
		name, want string
		plant      func(t *testing.T, db *tpccDB)
	}{
		{"w_ytd", "w_ytd", func(t *testing.T, db *tpccDB) {
			update(t, db.db, tpcc.TableWarehouse, []btrim.Value{w1}, func(r btrim.Row) {
				r[colWYTD] = btrim.Float64(r[colWYTD].Float() + 1)
			})
		}},
		{"d_next_o_id", "max(o_id)", func(t *testing.T, db *tpccDB) {
			update(t, db.db, tpcc.TableDistrict, []btrim.Value{w1, d1}, func(r btrim.Row) {
				r[colDNextOID] = i64(r[colDNextOID].Int() + 1)
			})
		}},
		{"newest new_order lost", "max(no_o_id)", func(t *testing.T, db *tpccDB) {
			ids := newOrderRange(t, db.db, 1, 1)
			del(t, db.db, tpcc.TableNewOrders, w1, d1, i64(ids[len(ids)-1]))
		}},
		{"new_orders gap", "not contiguous", func(t *testing.T, db *tpccDB) {
			ids := newOrderRange(t, db.db, 1, 1)
			del(t, db.db, tpcc.TableNewOrders, w1, d1, i64(ids[1]))
		}},
		{"order line lost", "count(order_line)", func(t *testing.T, db *tpccDB) {
			del(t, db.db, tpcc.TableOrderLine, w1, d1, i64(1), i64(1))
		}},
		{"stray history row", "history rows", func(t *testing.T, db *tpccDB) {
			if err := db.db.Update(func(tx *btrim.Tx) error {
				return tx.Insert(tpcc.TableHistory, btrim.Values(i64(1<<40), w1, d1, i64(1), i64(0),
					btrim.Float64(1), btrim.String("planted")))
			}); err != nil {
				t.Fatal(err)
			}
		}},
		{"payment count", "c_payment_cnt", func(t *testing.T, db *tpccDB) {
			update(t, db.db, tpcc.TableCustomer, []btrim.Value{w1, d1, i64(1)}, func(r btrim.Row) {
				r[colCPaymentCnt] = i64(r[colCPaymentCnt].Int() + 1)
			})
		}},
		{"customer balance", "c_balance+c_ytd_payment", func(t *testing.T, db *tpccDB) {
			update(t, db.db, tpcc.TableCustomer, []btrim.Value{w1, d1, i64(2)}, func(r btrim.Row) {
				r[colCBalance] = btrim.Float64(r[colCBalance].Float() + 0.5)
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			db := loadedTPCC(t)
			c.plant(t, db)
			v := checkLoaded(t, db)
			if !strings.Contains(strings.Join(v, "\n"), c.want) {
				t.Fatalf("planted %s; violations %q do not mention %q", c.name, v, c.want)
			}
		})
	}
}

var smallWire = wireSize{warehouses: 2, districts: 3, customers: 20, shards: 2, imrsBytes: 16 << 20}

// loadedWire loads a small sharded node, runs Payments and balance
// checks over the wire, and stops the server.
func loadedWire(t *testing.T) *wireDB {
	t.Helper()
	w, err := openWire(smallWire, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.close)
	p := runPhase(phaseSpec{kinds: wireKinds, clients: clients, roundTxns: 200, maxRounds: 1, seed: 3,
		run: w.txn, classify: classifyWire})
	if p.failed() != 0 || p.byKind[kWireBalance].committed == 0 {
		t.Fatalf("run: %d failed (%v), %+v", p.failed(), p.hard, p.byKind)
	}
	w.quiesce()
	return w
}

func checkWireDB(t *testing.T, w *wireDB) []string {
	t.Helper()
	var v []string
	if err := w.db.View(func(tx *btrim.STx) error {
		var err error
		v, err = checkWire(tx, w.payments.Load(), smallWire.customerRows())
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if w.badRows.Load() != 0 {
		t.Fatalf("%d balance checks returned other than one row", w.badRows.Load())
	}
	return v
}

func TestCheckWireCatchesPlantedViolations(t *testing.T) {
	if v := checkWireDB(t, loadedWire(t)); len(v) != 0 {
		t.Fatalf("violations on an untouched run: %v", v)
	}
	set := func(w *wireDB, table string, pk []btrim.Value, col int, delta float64) error {
		return w.db.Update(func(tx *btrim.STx) error {
			_, err := tx.Update(table, pk, func(r btrim.Row) (btrim.Row, error) {
				r[col] = btrim.Float64(r[col].Float() + delta)
				return r, nil
			})
			return err
		})
	}
	cases := []struct {
		name, want string
		plant      func(w *wireDB) error
	}{
		// A Payment whose warehouse shard committed and whose district
		// shard did not.
		{"half-committed payment", "w_ytd", func(w *wireDB) error {
			return set(w, tpcc.TableWarehouse, []btrim.Value{i64(1)}, colWYTD, 42)
		}},
		{"stray history row", "history rows", func(w *wireDB) error {
			return w.db.Update(func(tx *btrim.STx) error {
				return tx.Insert(tpcc.TableHistory, btrim.Values(i64(1<<40), i64(1), i64(1), i64(1), i64(0),
					btrim.Float64(1), btrim.String("planted")))
			})
		}},
		{"customer ytd", "c_ytd_payment growth", func(w *wireDB) error {
			return set(w, tpcc.TableCustomer, []btrim.Value{i64(1), i64(1), i64(1)}, colCYTDPayment, 3)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := loadedWire(t)
			if err := c.plant(w); err != nil {
				t.Fatal(err)
			}
			v := checkWireDB(t, w)
			if !strings.Contains(strings.Join(v, "\n"), c.want) {
				t.Fatalf("planted %s; violations %q do not mention %q", c.name, v, c.want)
			}
		})
	}
}

func TestCheckBalanceRows(t *testing.T) {
	row := btrim.Values(btrim.Float64(1), i64(1))
	if err := checkBalanceRows([]btrim.Row{row}); err != nil {
		t.Errorf("one row rejected: %v", err)
	}
	if checkBalanceRows(nil) == nil || checkBalanceRows([]btrim.Row{row, row}) == nil {
		t.Error("zero or two rows accepted")
	}
}
