//go:build goexperiment.synctest

package cluster

// StartMemFleet is StartFleet on a fresh in-memory network (sim_test.go),
// for the external tests that run a fleet inside a synctest bubble.
func StartMemFleet(cfg FleetConfig) (*Fleet, error) {
	return startFleetOn(cfg, (&memNet{lis: make(map[string]*memListener)}).network())
}
