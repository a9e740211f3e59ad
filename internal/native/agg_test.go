package native

import (
	"math/rand"
	"testing"
)

// TestAggTableGrowsAndCollides feeds a table sized for one group
// thousands of them, under every scheme: it must double its directory
// past every power of two on the way, and codes shared by many keys —
// long chains of them — must still resolve each key to its own group.
// The second input is one partition's codes, all sharing their low 6
// bits, as a worker of a partitioned join feeds its partial. After each
// pass the grown table is Reset to a smaller expectation, keeping its
// allocations, and the input replayed. Every group is checked against a
// map, in first-seen order.
func TestAggTableGrowsAndCollides(t *testing.T) {
	type acc struct{ count, sum uint64 }
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"collide", "partition"} {
		in := make([]AggInput, 20_000)
		for i := range in {
			key := uint32(rng.Intn(3000))
			code := key * 2654435761
			switch {
			case name == "partition":
				code = code<<6 | 37
			case key%3 == 0:
				code = key % 7 // hundreds of keys on each of seven codes
			}
			in[i] = AggInput{Code: code, Key: key, Value: uint32(rng.Intn(1000))}
		}
		want := make(map[uint32]acc)
		var order []uint32
		for _, x := range in {
			a, seen := want[x.Key]
			if !seen {
				order = append(order, x.Key)
			}
			want[x.Key] = acc{a.count + 1, a.sum + uint64(x.Value)}
		}
		for _, scheme := range []Scheme{Baseline, Group, Pipelined} {
			tbl := NewAggTable(1)
			for _, pass := range []string{"fresh", "reused"} {
				if pass == "reused" {
					tbl.Reset(len(order) / 4)
				}
				for lo := 0; lo < len(in); lo += DefaultG {
					tbl.UpsertBatch(in[lo:min(lo+DefaultG, len(in))], scheme, DefaultG)
				}
				if tbl.NGroups() != len(order) {
					t.Fatalf("%s/%v/%s: %d groups, want %d", name, scheme, pass, tbl.NGroups(), len(order))
				}
				i := 0
				tbl.Each(func(key uint32, count, sum uint64) {
					if key != order[i] || (acc{count, sum}) != want[key] {
						t.Fatalf("%s/%v/%s: group %d = key %d (%d, %d), want key %d %+v",
							name, scheme, pass, i, key, count, sum, order[i], want[order[i]])
					}
					i++
				})
			}
		}
	}
}
