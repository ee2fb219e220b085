package fault

import (
	"strings"
	"testing"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		plan    Plan
		nodes   int
		wantErr string // "" means the plan is valid
	}{
		{"empty plan", nil, 8, ""},
		{"single event", Plan{{At: 10, Node: 3}}, 8, ""},
		{"ordered events", Plan{{At: 10, Node: 1}, {At: 20, Node: 2}}, 8, ""},
		{"boundary node", Plan{{At: 10, Node: 7}}, 8, ""},
		{"cycle zero", Plan{{At: 0, Node: 0}}, 8, ""},
		// Simultaneous failures are legal by design: Exponential can draw
		// coincident events, and data-loss experiments rely on them.
		{"simultaneous events", Plan{{At: 10, Node: 1}, {At: 10, Node: 2}}, 8, ""},
		{"same node twice", Plan{{At: 10, Node: 1}, {At: 20, Node: 1}}, 8, ""},
		// Order is not checked: the coordinator arms each failure by its
		// cycle, and comafault passes its -fail flags in the order given.
		{"out of order", Plan{{At: 10, Node: 1}, {At: 5, Node: 2}}, 8, ""},

		{"node beyond machine", Plan{{At: 10, Node: 9}}, 8, "names node n9 of 8"},
		{"node equals machine size", Plan{{At: 10, Node: 8}}, 8, "names node n8 of 8"},
		{"negative node", Plan{{At: 10, Node: -1}}, 8, "names node n-1 of 8"},
		{"negative time", Plan{{At: -1, Node: 1}}, 8, "negative time -1"},
		{"later event bad node", Plan{{At: 10, Node: 1}, {At: 20, Node: 8}}, 8, "event 1 names node n8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate(tc.nodes)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate(%d) = %v, want nil", tc.nodes, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate(%d) accepted an invalid plan", tc.nodes)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestExponentialDeterministicAndOrdered(t *testing.T) {
	a := Exponential(42, 16, 100_000, 10_000_000, 0.25)
	b := Exponential(42, 16, 100_000, 10_000_000, 0.25)
	if len(a) == 0 {
		t.Fatal("empty plan for a 100-MTBF horizon")
	}
	if len(a) != len(b) {
		t.Fatal("same seed produced different plans")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different plans")
		}
	}
	if err := a.Validate(16); err != nil {
		t.Fatal(err)
	}
	// Mean spacing should be in the right ballpark.
	mean := float64(a[len(a)-1].At) / float64(len(a))
	if mean < 30_000 || mean > 300_000 {
		t.Fatalf("mean inter-arrival = %.0f, want ~100k", mean)
	}
}

func TestExponentialNoFailuresAfterPermanentDeath(t *testing.T) {
	p := Exponential(7, 4, 50_000, 20_000_000, 1.0) // all permanent
	seen := map[int]int{}
	for _, e := range p {
		seen[e.Node]++
	}
	for n, c := range seen {
		if c > 1 {
			t.Fatalf("node %d fails permanently %d times", n, c)
		}
	}
	if p.PermanentCount() != len(p) {
		t.Fatalf("PermanentCount = %d of %d all-permanent failures", p.PermanentCount(), len(p))
	}
}

func TestSortStable(t *testing.T) {
	p := Plan{{At: 20, Node: 5}, {At: 10, Node: 7}, {At: 10, Node: 2}}
	p.Sort()
	if p[0].At != 10 || p[0].Node != 7 && p[0].Node != 2 {
		t.Fatalf("sorted = %+v", p)
	}
	if p[0].Node != 2 {
		t.Fatalf("equal times not ordered by node: %+v", p)
	}
	if err := p.Validate(8); err != nil {
		t.Fatal(err)
	}
}
