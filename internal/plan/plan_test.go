package plan

import (
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

// TestResolve covers each override Resolve can apply to Choose's pick,
// and the pick passing through untouched: the strategy and fan-out that
// run, and a Reason that names the override (or is Choose's own).
func TestResolve(t *testing.T) {
	stream := Stats{BuildRows: 10000, ProbeRows: 100000, BuildWidth: 32, ProbeWidth: 32,
		BuildFootprint: DefaultPartitionCrossoverBytes / 2}
	big := stream
	big.BuildFootprint = 4 * DefaultPartitionCrossoverBytes // Choose: partitioned, fanout 4

	for _, tc := range []struct {
		name     string
		req      Request
		strategy Strategy
		fanout   int
		reason   string // substring; "" = Choose's reason verbatim
	}{
		{"untouched auto", Request{Stats: stream}, StreamHash, 1, ""},
		{"untouched auto, unpinned fanout", Request{Stats: big}, PartitionedHash, 4, ""},
		{"forced agrees", Request{Stats: stream, Forced: StreamHash}, StreamHash, 1, ""},
		{"forced partitioned, default width", Request{Stats: stream, Forced: PartitionedHash, PinnedFanout: 1}, PartitionedHash, 2, "forced strategy partitioned"},
		{"forced partitioned, pinned width", Request{Stats: stream, Forced: PartitionedHash, PinnedFanout: 16}, PartitionedHash, 16, "forced strategy partitioned"},
		{"forced stream drops the planner's fanout", Request{Stats: big, Forced: StreamHash}, StreamHash, 1, "planner preferred partitioned"},
		{"prebuilt pins stream", Request{Stats: big, Prebuilt: true}, StreamHash, 1, "prebuilt build side pins the streaming strategy (planner preferred partitioned)"},
		{"prebuilt, planner agrees", Request{Stats: stream, Prebuilt: true}, StreamHash, 1, ""},
		{"sim clamps partitioned", Request{Stats: big, Sim: true}, StreamHash, 1, "sim backend runs single-table joins only"},
		{"sim ignores a pinned fanout", Request{Stats: stream, Sim: true, PinnedFanout: 8}, StreamHash, 1, ""},
		{"fanout pins partitioned", Request{Stats: stream, PinnedFanout: 8}, PartitionedHash, 8, "-fanout 8 pins the partitioned strategy; planner preferred stream"},
		{"fanout 1 pins nothing", Request{Stats: stream, PinnedFanout: 1}, StreamHash, 1, ""},
		{"planner already partitions: a pinned fanout replaces its width", Request{Stats: big, PinnedFanout: 8}, PartitionedHash, 8, "pinned fanout 8 replaces the planner's fanout 4"},
		{"forced partitioned agrees: a pinned fanout replaces its width", Request{Stats: big, Forced: PartitionedHash, PinnedFanout: 16}, PartitionedHash, 16, "pinned fanout 16 replaces the planner's fanout 4"},
		{"planner already partitions: an equal pin changes nothing", Request{Stats: big, PinnedFanout: 4}, PartitionedHash, 4, ""},
	} {
		d := Resolve(tc.req)
		if d.Strategy != tc.strategy || d.Fanout != tc.fanout {
			t.Errorf("%s: strategy/fanout = %v/%d, want %v/%d", tc.name, d.Strategy, d.Fanout, tc.strategy, tc.fanout)
		}
		if want := Choose(tc.req.Stats, tc.req.JoinType, tc.req.Budget).Reason; tc.reason == "" && d.Reason != want {
			t.Errorf("%s: reason = %q, want Choose's %q", tc.name, d.Reason, want)
		} else if !strings.Contains(d.Reason, tc.reason) {
			t.Errorf("%s: reason = %q, want it to contain %q", tc.name, d.Reason, tc.reason)
		}
	}
}
