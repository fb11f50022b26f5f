// Package core is an anytimecheck fixture; its import-path tail "core"
// puts it inside the policed set.
package core

import (
	"anytime"
	"subset"
)

func enumerateBad(k int) int {
	n := 0
	for e := uint64(0); e < uint64(1)<<uint(k); e++ { // want `enumeration loop never charges the anytime budget`
		n += int(e)
	}
	return n
}

func enumerateCharged(k int, ctl *anytime.Ctl) int {
	n := 0
	for e := uint64(0); e < uint64(1)<<uint(k); e++ {
		if !ctl.Charge(1, 0) {
			break
		}
		n += int(e)
	}
	return n
}

func enumerateChecked(k int, ctl *anytime.Ctl) {
	for e := uint64(0); e < uint64(1)<<uint(k); e++ {
		if !ctl.Check() {
			return
		}
	}
}

func flushAndCharge() bool { return true }

func enumerateViaHelper(k int) {
	for e := uint64(0); e < uint64(1)<<uint(k); e++ {
		if !flushAndCharge() {
			return
		}
	}
}

func latticeBad(masks []uint64) int {
	n := 0
	for _, m := range masks { // want `enumeration loop never charges the anytime budget`
		subset.Submasks(m, func(s uint64) bool { n++; return true })
	}
	return n
}

func latticeCharged(masks []uint64, ctl *anytime.Ctl) int {
	n := 0
	for _, m := range masks {
		if !ctl.Charge(1, 0) {
			break
		}
		subset.Submasks(m, func(s uint64) bool { n++; return true })
	}
	return n
}

func commentLoop(states []float64) float64 {
	total := 0.0
	// Enumerate every bottleneck configuration in the residual block.
	for _, p := range states { // want `enumeration loop never charges the anytime budget`
		total += p
	}
	return total
}

func waivedLoop(k int) int {
	n := 0
	//flowrelvet:unbounded fixture: the caller bounds k at 8
	for e := uint64(0); e < uint64(1)<<uint(k); e++ {
		n += int(e)
	}
	return n
}

func ordinaryLoop(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}
