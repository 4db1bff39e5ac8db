package loadgen

import (
	"embed"
	"fmt"
	"sort"
	"strings"
)

// The shipped scenario matrix. Each file is a declarative text spec (see
// Parse) with its own acceptance bounds; internal/cluster's
// TestSimScenarios runs them all and EXPERIMENTS.md documents what each one
// models.
//
//go:embed scenarios/*.scenario
var scenarioFS embed.FS

// BuiltinNames lists the shipped scenarios, sorted.
func BuiltinNames() []string {
	entries, err := scenarioFS.ReadDir("scenarios")
	if err != nil {
		return nil
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, strings.TrimSuffix(e.Name(), ".scenario"))
	}
	sort.Strings(names)
	return names
}

// Builtin parses the named shipped scenario.
func Builtin(name string) (*Scenario, error) {
	data, err := scenarioFS.ReadFile("scenarios/" + name + ".scenario")
	if err != nil {
		return nil, fmt.Errorf("loadgen: unknown builtin scenario %q (have %s)",
			name, strings.Join(BuiltinNames(), ", "))
	}
	sc, err := Parse(string(data))
	if err != nil {
		return nil, fmt.Errorf("loadgen: builtin %q: %w", name, err)
	}
	if sc.Name != name {
		return nil, fmt.Errorf("loadgen: builtin file %q names itself %q", name, sc.Name)
	}
	return sc, nil
}

// Builtins parses the whole shipped matrix, in name order.
func Builtins() ([]*Scenario, error) {
	var out []*Scenario
	for _, name := range BuiltinNames() {
		sc, err := Builtin(name)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}
