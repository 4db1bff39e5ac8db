//go:build goexperiment.synctest

package cluster

// StartMemFleet is StartFleet on a fresh in-memory network (sim_test.go),
// for the external tests that run a fleet inside a synctest bubble. wired
// reads the bytes written on the network so far.
func StartMemFleet(cfg FleetConfig) (f *Fleet, wired func() int64, err error) {
	m := newMemNet()
	f, err = startFleetOn(cfg, m.network())
	return f, m.wired.Load, err
}

// UpdateGolden is the -update flag, for the external tests' goldens.
var UpdateGolden = updateGolden
