// Package knapsack implements the 0/1 knapsack problem and the paper's
// NP-completeness construction, which transforms a knapsack instance into a
// heterogeneous assignment problem (HAP) on a simple path (§4 of the paper).
//
// The package serves two purposes: it documents the hardness proof as
// executable code, and it provides an independent oracle — the classic
// pseudo-polynomial knapsack DP — against which the assignment algorithms
// are cross-checked in the hap package's tests.
package knapsack

import (
	"errors"
	"fmt"

	"hetsynth/internal/dfg"
	"hetsynth/internal/fu"
)

// Item is one 0/1 knapsack item.
type Item struct {
	Value  int64 // profit if selected; must be >= 0
	Weight int   // capacity consumed if selected; must be >= 0
}

// Instance is a 0/1 knapsack instance: choose a subset of Items with total
// weight at most Capacity maximizing total value.
type Instance struct {
	Items    []Item
	Capacity int
}

// Validate checks non-negativity of all parameters.
func (in Instance) Validate() error {
	if in.Capacity < 0 {
		return fmt.Errorf("knapsack: negative capacity %d", in.Capacity)
	}
	for i, it := range in.Items {
		if it.Value < 0 {
			return fmt.Errorf("knapsack: item %d has negative value %d", i, it.Value)
		}
		if it.Weight < 0 {
			return fmt.Errorf("knapsack: item %d has negative weight %d", i, it.Weight)
		}
	}
	return nil
}

// Solve returns the maximum achievable value and one optimal selection
// (selected[i] reports whether item i is taken), using the standard
// O(n·Capacity) dynamic program.
// hetsynth:keep NP-completeness construction (§4), exercised by its reduction tests
func Solve(in Instance) (best int64, selected []bool, err error) {
	if err := in.Validate(); err != nil {
		return 0, nil, err
	}
	n := len(in.Items)
	w := in.Capacity
	// dp[i][c]: best value using items[0:i] within capacity c.
	dp := make([][]int64, n+1)
	for i := range dp {
		dp[i] = make([]int64, w+1)
	}
	for i := 1; i <= n; i++ {
		it := in.Items[i-1]
		for c := 0; c <= w; c++ {
			dp[i][c] = dp[i-1][c]
			if it.Weight <= c {
				if v := dp[i-1][c-it.Weight] + it.Value; v > dp[i][c] {
					dp[i][c] = v
				}
			}
		}
	}
	selected = make([]bool, n)
	c := w
	for i := n; i >= 1; i-- {
		if dp[i][c] != dp[i-1][c] {
			selected[i-1] = true
			c -= in.Items[i-1].Weight
		}
	}
	return dp[n][w], selected, nil
}

// SolveBrute enumerates all 2^n subsets; it exists as an independent oracle
// for property tests and refuses instances with more than 24 items.
// hetsynth:keep NP-completeness construction (§4), exercised by its reduction tests
func SolveBrute(in Instance) (int64, error) {
	if err := in.Validate(); err != nil {
		return 0, err
	}
	n := len(in.Items)
	if n > 24 {
		return 0, errors.New("knapsack: brute force limited to 24 items")
	}
	var best int64
	for mask := 0; mask < 1<<n; mask++ {
		var v int64
		wt := 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += in.Items[i].Value
				wt += in.Items[i].Weight
			}
		}
		if wt <= in.Capacity && v > best {
			best = v
		}
	}
	return best, nil
}

// Reduction is the HAP instance produced from a knapsack instance by the
// NP-completeness construction, plus the bookkeeping needed to map the HAP
// optimum back to the knapsack optimum.
type Reduction struct {
	Graph    *dfg.Graph  // simple path v1 -> ... -> vn
	Library  *fu.Library // two types: "select", "skip"
	Table    *fu.Table
	Deadline int   // timing constraint L
	VMax     int64 // max item value, used by RecoverValue
}

// SelectType is the FU type whose choice at node i means "item i selected".
const SelectType fu.TypeID = 0

// Reduce performs the construction of §4: node v_i stands for item i.
// Assigning the "select" type to v_i takes Weight_i + 1 time units and costs
// VMax − Value_i; the "skip" type takes 1 time unit and costs VMax. With
// timing constraint L = Capacity + n, an assignment is feasible iff the
// selected items fit the knapsack, and its system cost is
// n·VMax − (total selected value). Minimizing HAP cost therefore maximizes
// knapsack value, so a polynomial HAP solver would solve knapsack.
// hetsynth:keep NP-completeness construction (§4), exercised by its reduction tests
func Reduce(in Instance) (*Reduction, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	n := len(in.Items)
	if n == 0 {
		return nil, errors.New("knapsack: reduction needs at least one item")
	}
	var vmax int64
	for _, it := range in.Items {
		if it.Value > vmax {
			vmax = it.Value
		}
	}
	g := dfg.Chain(n)
	tab := fu.NewTable(n, 2)
	for i, it := range in.Items {
		tab.MustSet(i,
			[]int{it.Weight + 1, 1},
			[]int64{vmax - it.Value, vmax},
		)
	}
	return &Reduction{
		Graph:    g,
		Library:  fu.MustLibrary(fu.Type{Name: "select"}, fu.Type{Name: "skip"}),
		Table:    tab,
		Deadline: in.Capacity + n,
		VMax:     vmax,
	}, nil
}

// RecoverValue maps the optimal HAP system cost back to the optimal knapsack
// value: value = n·VMax − cost.
// hetsynth:keep NP-completeness construction (§4), exercised by its reduction tests
func (r *Reduction) RecoverValue(hapCost int64) int64 {
	return int64(r.Graph.N())*r.VMax - hapCost
}

// RecoverSelection maps a HAP assignment (one type per path node) back to
// the knapsack selection it encodes.
// hetsynth:keep NP-completeness construction (§4), exercised by its reduction tests
func (r *Reduction) RecoverSelection(assignment []fu.TypeID) []bool {
	sel := make([]bool, len(assignment))
	for i, k := range assignment {
		sel[i] = k == SelectType
	}
	return sel
}
