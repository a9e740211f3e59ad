package plan

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

func TestParseJoinTypeRoundTrip(t *testing.T) {
	for _, jt := range JoinTypes() {
		got, err := ParseJoinType(jt.String())
		if err != nil || got != jt {
			t.Fatalf("ParseJoinType(%q) = %v, %v", jt.String(), got, err)
		}
	}
	for in, want := range map[string]JoinType{
		"left-semi": LeftSemi, "left-anti": LeftAnti, "left": LeftOuter,
		"right": RightOuter, "": Inner, "INNER": Inner,
	} {
		got, err := ParseJoinType(in)
		if err != nil || got != want {
			t.Fatalf("ParseJoinType(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseJoinType("full-outer"); err == nil {
		t.Fatal("ParseJoinType accepted full-outer")
	}
}

func TestParseStrategyRoundTrip(t *testing.T) {
	for _, s := range []Strategy{Auto, StreamHash, PartitionedHash} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStrategy(%q) = %v, %v", s.String(), got, err)
		}
	}
	// The nested-loop strategy is retired: its spellings are unknown
	// names like any other, answered with the accepted list.
	for _, name := range []string{"index", "nested-loop", "nl"} {
		_, err := ParseStrategy(name)
		if err == nil || !strings.Contains(err.Error(), "accepted: "+StrategyNames()) {
			t.Fatalf("ParseStrategy(%q) error = %v, want the unknown-strategy error listing %q", name, err, StrategyNames())
		}
	}
}

func TestProbeOnly(t *testing.T) {
	for jt, want := range map[JoinType]bool{
		Inner: false, LeftOuter: false, RightOuter: false,
		LeftSemi: true, LeftAnti: true,
	} {
		if jt.ProbeOnly() != want {
			t.Fatalf("%v.ProbeOnly() = %v, want %v", jt, jt.ProbeOnly(), want)
		}
	}
}

func TestChoosePartitionedOverBudget(t *testing.T) {
	st := Stats{BuildRows: 1 << 16, ProbeRows: 1 << 17,
		BuildWidth: 32, ProbeWidth: 32, BuildFootprint: 1 << 20}
	d := Choose(st, Inner, 1<<16)
	if d.Strategy != PartitionedHash {
		t.Fatalf("over budget: %+v", d)
	}
	if d.Fanout < 2 || d.Fanout&(d.Fanout-1) != 0 || d.Fanout > maxPlannedFanout {
		t.Fatalf("fanout %d not a bounded power of two", d.Fanout)
	}
	// Each partition must fit the budget (up to the cap).
	if d.Fanout < maxPlannedFanout && (st.BuildFootprint+d.Fanout-1)/d.Fanout > 1<<16 {
		t.Fatalf("fanout %d leaves partitions over budget", d.Fanout)
	}
}

func TestChoosePartitionedPastCacheCrossover(t *testing.T) {
	st := Stats{BuildRows: 1 << 22, ProbeRows: 1 << 22, BuildWidth: 32,
		ProbeWidth: 32, BuildFootprint: 2 * DefaultPartitionCrossoverBytes}
	d := Choose(st, Inner, 0)
	if d.Strategy != PartitionedHash || d.Fanout < 2 {
		t.Fatalf("past partition crossover: %+v", d)
	}
}

func TestChooseStreamInBetween(t *testing.T) {
	const budget = 2 * DefaultPartitionCrossoverBytes
	st := Stats{BuildRows: 10000, ProbeRows: 100000, BuildWidth: 32,
		ProbeWidth: 32, BuildFootprint: DefaultPartitionCrossoverBytes / 2}
	d := Choose(st, LeftOuter, budget)
	if d.Strategy != StreamHash || d.Fanout != 1 {
		t.Fatalf("mid-size build: %+v", d)
	}
	if d.JoinType != LeftOuter || d.Budget != budget {
		t.Fatalf("decision does not echo inputs: %+v", d)
	}
}

func TestExplainCarriesInputs(t *testing.T) {
	d := Choose(Stats{BuildRows: 4, ProbeRows: 100, BuildFootprint: 256}, LeftSemi, 4096)
	s := d.Explain()
	for _, want := range []string{"strategy=stream", "join_type=semi",
		"build_rows=4", "probe_rows=100", "budget=4096", "reason="} {
		if !strings.Contains(s, want) {
			t.Fatalf("Explain() = %q missing %q", s, want)
		}
	}
}

// TestResolve covers every row of Resolve's rule: the pick passing
// through untouched, each override (the strategy and fan-out that run,
// and a Reason that names the override or is Choose's own), the budget
// governor's case, a named fan-out rounded up to the width that runs,
// and each conflicting request, which is an error.
func TestResolve(t *testing.T) {
	stream := Stats{BuildRows: 10000, ProbeRows: 100000, BuildWidth: 32, ProbeWidth: 32,
		BuildFootprint: DefaultPartitionCrossoverBytes / 2}
	big := stream
	big.BuildFootprint = 4 * DefaultPartitionCrossoverBytes // Choose: partitioned, fanout 4
	under := stream.BuildFootprint / 4                      // a budget the stream build overflows: Choose partitions at 4

	for _, tc := range []struct {
		name     string
		req      Request
		strategy Strategy
		fanout   int
		reason   string // substring; "" = Choose's reason verbatim
	}{
		{"untouched auto", Request{Stats: stream}, StreamHash, 1, ""},
		{"untouched auto, no fanout named", Request{Stats: big}, PartitionedHash, 4, ""},
		{"untouched auto, over budget", Request{Stats: stream, Budget: under}, PartitionedHash, 4, ""},
		{"forced agrees", Request{Stats: stream, Forced: StreamHash}, StreamHash, 1, ""},
		{"forced stream, fanout 1", Request{Stats: stream, Forced: StreamHash, Fanout: 1}, StreamHash, 1, ""},
		{"forced partitioned, default width", Request{Stats: stream, Forced: PartitionedHash, Fanout: 1}, PartitionedHash, 2, "forced strategy partitioned"},
		{"forced partitioned, named width", Request{Stats: stream, Forced: PartitionedHash, Fanout: 16}, PartitionedHash, 16, "forced strategy partitioned"},
		{"forced partitioned agrees: the planner's width", Request{Stats: big, Forced: PartitionedHash, Fanout: 1}, PartitionedHash, 4, ""},
		{"forced partitioned agrees: a named fanout replaces its width", Request{Stats: big, Forced: PartitionedHash, Fanout: 16}, PartitionedHash, 16, "pinned fanout 16 replaces the planner's fanout 4"},
		{"forced stream drops the planner's fanout", Request{Stats: big, Forced: StreamHash}, StreamHash, 1, "planner preferred partitioned"},
		{"forced stream over budget: the governor splits", Request{Stats: stream, Budget: under, Forced: StreamHash}, PartitionedHash, 1, "forced strategy stream; planner preferred partitioned; at fanout 1 the governor splits the one pair recursively"},
		{"forced stream, prebuilt", Request{Stats: big, Forced: StreamHash, Prebuilt: true}, StreamHash, 1, "forced strategy stream"},
		{"prebuilt pins stream", Request{Stats: big, Prebuilt: true}, StreamHash, 1, "prebuilt build side pins the streaming strategy (planner preferred partitioned)"},
		{"prebuilt over budget still streams", Request{Stats: stream, Budget: under, Prebuilt: true}, StreamHash, 1, "prebuilt build side pins"},
		{"prebuilt, planner agrees", Request{Stats: stream, Prebuilt: true}, StreamHash, 1, ""},
		{"prebuilt, fanout 1", Request{Stats: big, Prebuilt: true, Fanout: 1}, StreamHash, 1, "fanout 1 streams through one table"},
		{"sim clamps partitioned", Request{Stats: big, Sim: true}, StreamHash, 1, "sim backend runs single-table joins only"},
		{"sim ignores a named fanout", Request{Stats: stream, Sim: true, Fanout: 8}, StreamHash, 1, ""},
		{"sim over budget streams", Request{Stats: stream, Budget: under, Sim: true, Fanout: 1}, StreamHash, 1, "fanout 1 streams"},
		{"fanout pins partitioned", Request{Stats: stream, Fanout: 8}, PartitionedHash, 8, "fanout 8 pins the partitioned strategy; planner preferred stream"},
		{"fanout 1 streams", Request{Stats: stream, Fanout: 1}, StreamHash, 1, ""},
		{"fanout 1 streams where the planner partitions", Request{Stats: big, Fanout: 1}, StreamHash, 1, "fanout 1 streams through one table (planner preferred partitioned: build footprint"},
		{"fanout 1 over budget: the governor splits", Request{Stats: stream, Budget: under, Fanout: 1}, PartitionedHash, 1, "exceeds budget " + strconv.Itoa(under) + " B); at fanout 1 the governor splits the one pair recursively"},
		{"planner already partitions: a named fanout replaces its width", Request{Stats: big, Fanout: 8}, PartitionedHash, 8, "pinned fanout 8 replaces the planner's fanout 4"},
		{"planner already partitions: an equal fanout changes nothing", Request{Stats: big, Fanout: 4}, PartitionedHash, 4, ""},
		{"fanout N over budget partitions at N", Request{Stats: stream, Budget: under, Fanout: 32}, PartitionedHash, 32, "pinned fanout 32 replaces the planner's fanout 4"},
		{"fanout 3 runs, and reads, as 4", Request{Stats: stream, Fanout: 3}, PartitionedHash, 4, "fanout 4 pins the partitioned strategy; planner preferred stream"},
		{"forced partitioned, fanout 3 runs as 4", Request{Stats: stream, Forced: PartitionedHash, Fanout: 3}, PartitionedHash, 4, "forced strategy partitioned"},
		{"planner already partitions at 4: fanout 3 changes nothing", Request{Stats: big, Fanout: 3}, PartitionedHash, 4, ""},
	} {
		d, err := Resolve(tc.req)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if d.Strategy != tc.strategy || d.Fanout != tc.fanout {
			t.Errorf("%s: strategy/fanout = %v/%d, want %v/%d", tc.name, d.Strategy, d.Fanout, tc.strategy, tc.fanout)
		}
		if want := Choose(tc.req.Stats, tc.req.JoinType, tc.req.Budget).Reason; tc.reason == "" && d.Reason != want {
			t.Errorf("%s: reason = %q, want Choose's %q", tc.name, d.Reason, want)
		} else if !strings.Contains(d.Reason, tc.reason) {
			t.Errorf("%s: reason = %q, want it to contain %q", tc.name, d.Reason, tc.reason)
		}
	}

	// A request that contradicts itself is refused, whatever the planner
	// prefers, before anything runs: by Check, which reads no stats, and
	// by Resolve alike.
	for _, tc := range []struct {
		name string
		req  Request
		want string
	}{
		{"forced stream, fanout 8", Request{Stats: stream, Forced: StreamHash, Fanout: 8}, "fanout 8 conflicts"},
		{"forced partitioned, sim", Request{Stats: stream, Forced: PartitionedHash, Sim: true}, "native engine"},
		{"forced partitioned agrees, sim", Request{Stats: big, Forced: PartitionedHash, Sim: true, Fanout: 4}, "native engine"},
		{"forced partitioned, prebuilt", Request{Stats: stream, Forced: PartitionedHash, Prebuilt: true}, "prebuilt build side"},
		{"forced partitioned agrees, prebuilt", Request{Stats: big, Forced: PartitionedHash, Prebuilt: true}, "prebuilt build side"},
		{"forced partitioned agrees, prebuilt, named width", Request{Stats: big, Forced: PartitionedHash, Prebuilt: true, Fanout: 8}, "prebuilt build side"},
		{"fanout 8, prebuilt", Request{Stats: stream, Prebuilt: true, Fanout: 8}, "fanout 8 conflicts"},
	} {
		if d, err := Resolve(tc.req); !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resolve = %v/%d, %v; want an ErrConflict naming %q", tc.name, d.Strategy, d.Fanout, err, tc.want)
		}
		statsFree := tc.req
		statsFree.Stats = Stats{}
		if err := Check(statsFree); !errors.Is(err, ErrConflict) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v; want an ErrConflict naming %q", tc.name, err, tc.want)
		}
	}
}
