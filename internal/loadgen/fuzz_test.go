package loadgen

import (
	"reflect"
	"testing"
)

// FuzzScenarioParse checks the two properties the scenario plane relies on
// (mirroring the digest wire-format fuzz target):
//
//  1. Parse never panics on arbitrary text — it may only error — so a bad
//     scenario file cannot take down the run that loads it.
//  2. Any scenario Parse accepts renders to a canonical Format whose
//     re-parse is the identical scenario and whose re-render is the
//     identical text (Format is a fixed point).
func FuzzScenarioParse(f *testing.F) {
	f.Add(testScenarioText)
	for _, name := range BuiltinNames() {
		if sc, err := Builtin(name); err == nil {
			f.Add(sc.Format())
		}
	}
	f.Add("name x\nprofile DEC\nnodes 1\nphase p 1s rate=1")
	f.Add("name x\nprofile Berkeley\nnodes 2\npacing trace\nduration 2s\nrequests 100")
	f.Add("phase p 1s rate=1e300\nname \x00")
	f.Add("accept p99_ratio a b <= 1\nfault -1s x:partition")
	f.Add("name x\nprofile DEC\nnodes 3\nphase p 2s rate=1\n" +
		"restart 1s 1\nkill 1s 0\ninvalidate 1s 4\norigin-at 1s 9ms\nheal 1s\nfault 1s node-2:partition")

	f.Fuzz(func(t *testing.T, text string) {
		sc, err := Parse(text)
		if err != nil {
			return
		}
		canon := sc.Format()
		sc2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\ninput: %q\ncanonical: %q", err, text, canon)
		}
		if !reflect.DeepEqual(sc, sc2) {
			t.Fatalf("canonical round trip changed the scenario\ninput: %q\ncanonical: %q", text, canon)
		}
		if canon2 := sc2.Format(); canon2 != canon {
			t.Fatalf("Format is not a fixed point: %q vs %q", canon, canon2)
		}
	})
}
