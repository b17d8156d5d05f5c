package main

import (
	"fmt"
	"math"
	"sort"

	"repro/btrim"
	"repro/internal/tpcc"
)

// The checkers scan the final database and compare it with itself and
// with what the benchmark saw commit. They never read the engine's
// counters. Column ordinals follow internal/tpcc's schema.
const (
	colWID, colWYTD                              = 0, 3
	colDWID, colDID, colDYTD, colDNextOID        = 0, 1, 4, 5
	colCWID, colCDID, colCID                     = 0, 1, 2
	colCBalance, colCYTDPayment, colCPaymentCnt  = 6, 7, 8
	colHAmount                                   = 5
	colNOWID, colNODID, colNOOID                 = 0, 1, 2
	colOWID, colODID, colOID, colOCID, colOOLCnt = 0, 1, 2, 3, 6
	colOLWID, colOLDID, colOLOID                 = 0, 1, 2
	colOLAmount, colOLDeliveryD                  = 6, 7
	initialCustomerPayments                      = 1  // c_payment_cnt at load
	initialCustomerYTD                           = 10 // c_ytd_payment at load
)

// scanner is the read surface the checkers need; *btrim.Tx and
// *btrim.STx both provide it.
type scanner interface {
	Scan(table string, fn func(btrim.Row) bool) error
}

type distKey struct{ w, d int64 }
type custKey struct{ w, d, c int64 }
type orderKey struct{ w, d, o int64 }

// near reports whether two sums of the same float amounts agree up to
// the rounding that a different summation order can introduce.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// checkTPCCDB checks a TPC-C database after its clients have stopped.
func checkTPCCDB(db *btrim.DB, payments, customers int64) ([]string, error) {
	var v []string
	err := db.View(func(tx *btrim.Tx) error {
		var err error
		v, err = checkTPCC(tx, payments, customers)
		return err
	})
	return v, err
}

// checkTPCC checks the TPC-C consistency conditions on a quiesced
// database:
//   - W_YTD = sum of D_YTD over the warehouse's districts;
//   - D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) per district (the
//     new_orders term only where the district has queued orders);
//   - each district's new_orders ids are contiguous;
//   - sum of O_OL_CNT = count(order_line) per district;
//   - history rows = sum of c_payment_cnt growth = committed Payments;
//   - per customer, C_BALANCE + C_YTD_PAYMENT = sum of OL_AMOUNT over
//     the customer's order lines that Delivery stamped.
//
// It returns one line per violation.
func checkTPCC(tx scanner, payments, customers int64) ([]string, error) {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }

	wYTD := map[int64]float64{}
	if err := tx.Scan(tpcc.TableWarehouse, func(r btrim.Row) bool {
		wYTD[r[colWID].Int()] = r[colWYTD].Float()
		return true
	}); err != nil {
		return nil, err
	}
	dYTD := map[int64]float64{}
	nextO := map[distKey]int64{}
	if err := tx.Scan(tpcc.TableDistrict, func(r btrim.Row) bool {
		dYTD[r[colDWID].Int()] += r[colDYTD].Float()
		nextO[distKey{r[colDWID].Int(), r[colDID].Int()}] = r[colDNextOID].Int()
		return true
	}); err != nil {
		return nil, err
	}
	for _, w := range sortedKeys(wYTD) {
		if !near(wYTD[w], dYTD[w]) {
			bad("warehouse %d: w_ytd %.4f != sum(d_ytd) %.4f", w, wYTD[w], dYTD[w])
		}
	}

	maxO := map[distKey]int64{}
	olCnt := map[distKey]int64{}
	orderCust := map[orderKey]int64{}
	if err := tx.Scan(tpcc.TableOrders, func(r btrim.Row) bool {
		k := distKey{r[colOWID].Int(), r[colODID].Int()}
		o := r[colOID].Int()
		maxO[k] = max(maxO[k], o)
		olCnt[k] += r[colOOLCnt].Int()
		orderCust[orderKey{k.w, k.d, o}] = r[colOCID].Int()
		return true
	}); err != nil {
		return nil, err
	}
	type noRange struct{ lo, hi, n int64 }
	no := map[distKey]noRange{}
	if err := tx.Scan(tpcc.TableNewOrders, func(r btrim.Row) bool {
		k := distKey{r[colNOWID].Int(), r[colNODID].Int()}
		o := r[colNOOID].Int()
		cur, ok := no[k]
		if !ok {
			cur = noRange{lo: o, hi: o}
		}
		cur.lo, cur.hi, cur.n = min(cur.lo, o), max(cur.hi, o), cur.n+1
		no[k] = cur
		return true
	}); err != nil {
		return nil, err
	}
	olRows := map[distKey]int64{}
	delivered := map[custKey]float64{}
	var orphanLines int64
	if err := tx.Scan(tpcc.TableOrderLine, func(r btrim.Row) bool {
		k := distKey{r[colOLWID].Int(), r[colOLDID].Int()}
		olRows[k]++
		if r[colOLDeliveryD].Int() != 0 {
			c, ok := orderCust[orderKey{k.w, k.d, r[colOLOID].Int()}]
			if !ok {
				orphanLines++
				return true
			}
			delivered[custKey{k.w, k.d, c}] += r[colOLAmount].Float()
		}
		return true
	}); err != nil {
		return nil, err
	}
	if orphanLines > 0 {
		bad("%d delivered order lines have no order", orphanLines)
	}
	for _, k := range sortedDistricts(nextO) {
		n := nextO[k]
		if maxO[k] != n-1 {
			bad("district %d/%d: d_next_o_id-1 = %d != max(o_id) %d", k.w, k.d, n-1, maxO[k])
		}
		// The specification exempts districts with no outstanding new
		// orders from the new_orders half of this condition.
		if r := no[k]; r.n > 0 && r.hi != n-1 {
			bad("district %d/%d: d_next_o_id-1 = %d != max(no_o_id) %d", k.w, k.d, n-1, r.hi)
		}
		if r := no[k]; r.n > 0 && r.hi-r.lo+1 != r.n {
			bad("district %d/%d: new_orders %d..%d not contiguous (%d rows)", k.w, k.d, r.lo, r.hi, r.n)
		}
		if olCnt[k] != olRows[k] {
			bad("district %d/%d: sum(o_ol_cnt) %d != count(order_line) %d", k.w, k.d, olCnt[k], olRows[k])
		}
	}

	var history int64
	if err := tx.Scan(tpcc.TableHistory, func(btrim.Row) bool { history++; return true }); err != nil {
		return nil, err
	}
	if history != payments {
		bad("history rows %d != committed payments %d", history, payments)
	}
	var payCnt, nCust int64
	var badCust int
	if err := tx.Scan(tpcc.TableCustomer, func(r btrim.Row) bool {
		nCust++
		payCnt += r[colCPaymentCnt].Int() - initialCustomerPayments
		k := custKey{r[colCWID].Int(), r[colCDID].Int(), r[colCID].Int()}
		got := r[colCBalance].Float() + r[colCYTDPayment].Float()
		want := delivered[k]
		// Balance and YTD each carry sums up to ~1e6, so compare at the
		// precision those sums keep rather than relative to their
		// (small) difference.
		scale := math.Abs(r[colCBalance].Float()) + math.Abs(r[colCYTDPayment].Float()) + math.Abs(want)
		if math.Abs(got-want) > 1e-9*math.Max(1, scale) {
			if badCust < 5 {
				bad("customer %d/%d/%d: c_balance+c_ytd_payment %.4f != delivered amount %.4f", k.w, k.d, k.c, got, want)
			}
			badCust++
		}
		return true
	}); err != nil {
		return nil, err
	}
	if badCust > 5 {
		bad("... %d customers in all fail the balance condition", badCust)
	}
	if nCust != customers {
		bad("customer rows %d != loaded %d", nCust, customers)
	}
	if payCnt != payments {
		bad("sum of c_payment_cnt growth %d != committed payments %d", payCnt, payments)
	}
	return v, nil
}

// checkWire checks the wire workload's database after the server has
// stopped: per warehouse, w_ytd equals the sum of its districts' d_ytd
// (a cross-shard Payment that committed on some shards only breaks it);
// history rows equal the Payments the clients saw commit; and customer
// YTD growth equals the sum of history amounts.
func checkWire(tx scanner, payments, customers int64) ([]string, error) {
	var v []string
	bad := func(format string, args ...any) { v = append(v, fmt.Sprintf(format, args...)) }
	wYTD := map[int64]float64{}
	if err := tx.Scan(tpcc.TableWarehouse, func(r btrim.Row) bool {
		wYTD[r[colWID].Int()] = r[colWYTD].Float()
		return true
	}); err != nil {
		return nil, err
	}
	dYTD := map[int64]float64{}
	if err := tx.Scan(tpcc.TableDistrict, func(r btrim.Row) bool {
		dYTD[r[colDWID].Int()] += r[colDYTD].Float()
		return true
	}); err != nil {
		return nil, err
	}
	for _, w := range sortedKeys(wYTD) {
		if !near(wYTD[w], dYTD[w]) {
			bad("warehouse %d: w_ytd %.4f != sum(d_ytd) %.4f", w, wYTD[w], dYTD[w])
		}
	}
	var history int64
	var amounts float64
	if err := tx.Scan(tpcc.TableHistory, func(r btrim.Row) bool {
		history++
		amounts += r[colHAmount].Float()
		return true
	}); err != nil {
		return nil, err
	}
	if history != payments {
		bad("history rows %d != committed payments %d", history, payments)
	}
	var ytd float64
	var nCust int64
	if err := tx.Scan(tpcc.TableCustomer, func(r btrim.Row) bool {
		nCust++
		ytd += r[colCYTDPayment].Float() - initialCustomerYTD
		return true
	}); err != nil {
		return nil, err
	}
	if nCust != customers {
		bad("customer rows %d != loaded %d", nCust, customers)
	}
	if !near(ytd, amounts) {
		bad("sum of c_ytd_payment growth %.4f != sum of history amounts %.4f", ytd, amounts)
	}
	return v, nil
}

// checkBalanceRows checks one balance-check result: exactly one row.
func checkBalanceRows(rows []btrim.Row) error {
	if len(rows) != 1 {
		return fmt.Errorf("balance check returned %d rows, want 1", len(rows))
	}
	return nil
}

func sortedKeys(m map[int64]float64) []int64 {
	ks := make([]int64, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}

func sortedDistricts(m map[distKey]int64) []distKey {
	ks := make([]distKey, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].w != ks[j].w {
			return ks[i].w < ks[j].w
		}
		return ks[i].d < ks[j].d
	})
	return ks
}
