package mcheck

import "fmt"

// CheckSpillBound verifies the spill backend's memory contract on a
// finished search that spilled with the given ring and worker count: the
// frontier never held more records in memory than spillResidentBound, and
// whenever the frontier as a whole outgrew that bound, waves reached disk.
// Both hold at any core count and any schedule.
func CheckSpillBound(res *Result, ring, workers int) error {
	bound := int64(spillResidentBound(ring, workers))
	switch {
	case res.PeakResident <= 0 || res.PeakFrontier < res.PeakResident:
		return fmt.Errorf("peak accounting missing: %d resident, %d frontier", res.PeakResident, res.PeakFrontier)
	case res.PeakResident > bound:
		return fmt.Errorf("%d frontier records resident at peak, bound %d", res.PeakResident, bound)
	case res.PeakFrontier > bound && res.SpilledStates == 0:
		return fmt.Errorf("frontier peaked at %d records past the %d-record bound, yet nothing spilled", res.PeakFrontier, bound)
	}
	return nil
}
