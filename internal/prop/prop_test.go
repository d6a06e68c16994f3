package prop

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/reach"
	"repro/internal/stg"
)

func loadSTG(t *testing.T, name string) *stg.STG {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := stg.ParseG(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return g
}

func parseOne(t *testing.T, src string) Property {
	t.Helper()
	props, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	if len(props) != 1 {
		t.Fatalf("parse %q: %d properties", src, len(props))
	}
	return props[0]
}

func TestParseCanonical(t *testing.T) {
	// input → canonical rendering. Reparsing the canonical form must be a
	// fixed point (checked for all cases at the end).
	cases := []struct{ in, want string }{
		{"prop p : a", "a"},
		{"prop p : !a", "!a"},
		{"prop p : a & b & c", "a & b & c"},
		{"prop p : a & (b & c)", "a & (b & c)"},
		{"prop p : a | b & c", "a | b & c"},
		{"prop p : (a | b) & c", "(a | b) & c"},
		{"prop p : a -> b -> c", "a -> b -> c"},
		{"prop p : (a -> b) -> c", "(a -> b) -> c"},
		{"prop p : a <-> b | c", "a <-> b | c"},
		{"prop p : a && b || c", "a & b | c"},
		{"prop p : AG !deadlock", "AG !deadlock"},
		{"prop p : AG EF excited(a)", "AG EF excited(a)"},
		{"prop p : deadlock_free", "AG !deadlock"},
		{"prop p : live(a)", "AG EF excited(a)"},
		{"prop p : EF (a & marked(p0))", "EF (a & marked(p0))"},
		{"prop p : enabled(a+) -> !enabled(b-)", "enabled(a+) -> !enabled(b-)"},
		{"prop p : persistent", "persistent"},
		{"prop p : persistent(a)", "persistent(a)"},
		{"prop p : usc_conflict | csc_conflict", "usc_conflict | csc_conflict"},
		{"prop p : true -> false", "true -> false"},
		{"prop p : AG (a -> EF b)", "AG (a -> EF b)"},
	}
	for _, tc := range cases {
		p := parseOne(t, tc.in)
		if got := p.F.String(); got != tc.want {
			t.Errorf("parse(%q) renders %q, want %q", tc.in, got, tc.want)
		}
		again := parseOne(t, "prop p : "+p.F.String())
		if got := again.F.String(); got != p.F.String() {
			t.Errorf("reparse(%q) renders %q: not a fixed point", p.F.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p : a",                  // missing prop keyword
		"prop : a",               // missing name
		"prop p a",               // missing colon
		"prop p :",               // missing formula
		"prop p : a &",           // dangling operator
		"prop p : (a",            // unclosed paren
		"prop p : marked()",      // empty argument
		"prop p : marked",        // missing argument
		"prop p : enabled(a)",    // missing edge direction
		"prop p : enabled(a*)",   // bad direction
		"prop p : a $ b",         // bad character
		"prop p : prop",          // reserved word as atom
		"prop true : a",          // reserved word as name
		"prop p : a\nprop p : b", // duplicate name
		"prop p : " + strings.Repeat("(", 300) + "a" + strings.Repeat(")", 300), // too deep
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseFileCommentsAndBlank(t *testing.T) {
	src := "# header\n\nprop a : deadlock_free # trailing\n\nprop b : EF deadlock\n"
	props, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(props) != 2 || props[0].Name != "a" || props[1].Name != "b" {
		t.Fatalf("parsed %+v", props)
	}
	// Print → Parse is the identity on the canonical form.
	printed := Print(props)
	again, err := Parse(printed)
	if err != nil {
		t.Fatalf("reparse printed form: %v", err)
	}
	if Print(again) != printed {
		t.Fatalf("print/parse not a fixed point:\n%s\nvs\n%s", printed, Print(again))
	}
}

// TestStandardRoundTrip pins that the standard suite survives its own
// printed form: the check names deadlock_free and persistent are reserved
// words, yet they parse back as property names.
func TestStandardRoundTrip(t *testing.T) {
	std := Standard()
	props, err := Parse(Print(std))
	if err != nil {
		t.Fatalf("Parse(Print(Standard())): %v", err)
	}
	if !reflect.DeepEqual(props, std) {
		t.Fatalf("round trip changed the suite:\n%s\nvs\n%s", Print(props), Print(std))
	}
	// Other reserved words still cannot name a property.
	for _, name := range []string{"prop", "true", "AG", "deadlock", "excited"} {
		if _, err := Parse("prop " + name + " : deadlock_free"); err == nil {
			t.Errorf("reserved word %q accepted as a property name", name)
		}
	}
}

func TestBindErrors(t *testing.T) {
	g := loadSTG(t, "handshake.g")
	for _, src := range []string{
		"prop p : nosuch",
		"prop p : marked(nosuch)",
		"prop p : excited(nosuch)",
		"prop p : enabled(nosuch+)",
		"prop p : persistent(nosuch)",
	} {
		props, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Bind(g, props); err == nil {
			t.Errorf("Bind(%q) succeeded, want error", src)
		}
		if _, err := Check(g, props, Options{}); err == nil {
			t.Errorf("Check(%q) succeeded, want error", src)
		}
	}
	props, err := Parse("prop p : req & marked(<ack-,req+>) & excited(ack) & persistent(req)")
	if err != nil {
		t.Fatal(err)
	}
	if err := Bind(g, props); err != nil {
		t.Errorf("Bind on valid atoms: %v", err)
	}
}

// engines runs both engines on the same inputs and requires identical
// statuses.
func engines(t *testing.T, g *stg.STG, props []Property) (*Report, *Report) {
	t.Helper()
	exp, err := Check(g, props, Options{Engine: EngineExplicit})
	if err != nil {
		t.Fatalf("explicit: %v", err)
	}
	sym, err := Check(g, props, Options{Engine: EngineSymbolic})
	if err != nil {
		t.Fatalf("symbolic: %v", err)
	}
	for i := range props {
		if exp.Verdicts[i].Status != sym.Verdicts[i].Status {
			t.Fatalf("property %s: explicit=%v symbolic=%v",
				props[i].Name, exp.Verdicts[i].Status, sym.Verdicts[i].Status)
		}
	}
	if exp.States.Cmp(sym.States) != 0 {
		t.Fatalf("state counts differ: explicit=%s symbolic=%s", exp.States, sym.States)
	}
	return exp, sym
}

func TestStandardMatchesDedicated(t *testing.T) {
	for _, name := range []string{"handshake.g", "vme-read.g", "muller4.g", "dummy-hs.g", "arbiter-race.g", "phil-deadlock.g"} {
		t.Run(name, func(t *testing.T) {
			g := loadSTG(t, name)
			sg, err := reach.BuildSG(g, reach.Options{})
			if err != nil {
				t.Fatal(err)
			}
			imp := sg.CheckImplementability()
			exp, _ := engines(t, g, Standard())
			want := map[string]bool{
				"deadlock_free": imp.DeadlockFree,
				"usc":           imp.USC,
				"csc":           imp.CSC,
				"persistent":    imp.Persistent,
			}
			for _, v := range exp.Verdicts {
				wantHolds, ok := want[v.Property.Name]
				if !ok {
					t.Fatalf("unexpected property %s", v.Property.Name)
				}
				if (v.Status == StatusHolds) != wantHolds {
					t.Errorf("%s: general checker says %v, dedicated analysis says %v",
						v.Property.Name, v.Status, wantHolds)
				}
				if v.Status == StatusViolated && v.Trace == nil {
					t.Errorf("%s: violated without a counterexample", v.Property.Name)
				}
			}
		})
	}
}

func TestMutexCounterexample(t *testing.T) {
	g := loadSTG(t, "arbiter-race.g")
	// <r1+,g1+> marked means g1+ has not fired yet, so g1 is still low:
	// the third property's target is unreachable.
	props, err := Parse("prop mutex : AG !(g1 & g2)\nprop both : EF (g1 & g2)\nprop never : EF (g1 & marked(<r1+,g1+>))")
	if err != nil {
		t.Fatal(err)
	}
	exp, sym := engines(t, g, props)
	for _, rep := range []*Report{exp, sym} {
		if rep.Verdicts[0].Status != StatusViolated {
			t.Fatalf("%s: mutex = %v, want violated", rep.Engine, rep.Verdicts[0].Status)
		}
		tr := rep.Verdicts[0].Trace
		if tr == nil {
			t.Fatalf("%s: no counterexample", rep.Engine)
		}
		last := tr.Steps[len(tr.Steps)-1]
		g1 := g.SignalIndex("g1")
		g2 := g.SignalIndex("g2")
		if !last.Code.Bit(g1) || !last.Code.Bit(g2) {
			t.Fatalf("%s: counterexample ends in code %s, want g1&g2 high",
				rep.Engine, last.Code.String(len(g.Signals)))
		}
		// Shortest violating run: both handshakes complete the first half.
		if len(tr.Steps) != 5 {
			t.Errorf("%s: counterexample has %d steps, want 5 (%s)",
				rep.Engine, len(tr.Steps), tr.Events())
		}
		if wf := tr.Waveform(); !strings.Contains(wf, "g1") || !strings.Contains(wf, "/") {
			t.Errorf("%s: waveform rendering looks wrong:\n%s", rep.Engine, wf)
		}
		if rep.Verdicts[1].Status != StatusHolds {
			t.Fatalf("%s: EF (g1 & g2) = %v, want holds", rep.Engine, rep.Verdicts[1].Status)
		}
		if rep.Verdicts[1].Trace == nil {
			t.Fatalf("%s: holding EF without witness", rep.Engine)
		}
		if rep.Verdicts[2].Status != StatusViolated {
			t.Fatalf("%s: unreachable EF = %v, want violated", rep.Engine, rep.Verdicts[2].Status)
		}
		if rep.Verdicts[2].Trace != nil {
			t.Fatalf("%s: violated EF must not carry a trace", rep.Engine)
		}
	}
}

func TestPhilosophersDeadlock(t *testing.T) {
	g := loadSTG(t, "phil-deadlock.g")
	props, err := Parse(strings.Join([]string{
		"prop no_deadlock : deadlock_free",
		"prop can_stick : EF deadlock",
		"prop live_a : live(a)",
		"prop forks : AG (marked(p_ha) -> !marked(p_f1))",
		"prop pers : persistent(a)",
	}, "\n"))
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := engines(t, g, props)
	wants := []Status{StatusViolated, StatusHolds, StatusViolated, StatusHolds, StatusViolated}
	for i, w := range wants {
		if exp.Verdicts[i].Status != w {
			t.Errorf("%s = %v, want %v", props[i].Name, exp.Verdicts[i].Status, w)
		}
	}
	tr := exp.Verdicts[0].Trace
	if tr == nil {
		t.Fatal("deadlock_free violated without counterexample")
	}
	if got := tr.Events(); got != "a+ b+" && got != "b+ a+" {
		t.Errorf("deadlock counterexample events = %q", got)
	}
}

func TestImplicitInvariantVsTemporal(t *testing.T) {
	g := loadSTG(t, "handshake.g")
	// req is 0 initially and 1 later: the implicit invariant "!req" is
	// violated, but the CTL formula "EF req" holds and "!EF req" fails.
	props, err := Parse("prop inv : !req\nprop ef : EF req\nprop nef : !EF req")
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := engines(t, g, props)
	if exp.Verdicts[0].Status != StatusViolated {
		t.Errorf("invariant !req = %v, want violated", exp.Verdicts[0].Status)
	}
	if exp.Verdicts[1].Status != StatusHolds {
		t.Errorf("EF req = %v, want holds", exp.Verdicts[1].Status)
	}
	if exp.Verdicts[2].Status != StatusViolated {
		t.Errorf("!EF req = %v, want violated", exp.Verdicts[2].Status)
	}
}

// TestTraceReplay fires the counterexample's events on the net and checks
// every step's marking and code, so traces from both engines are genuine
// runs of the token game.
func TestTraceReplay(t *testing.T) {
	for _, name := range []string{"arbiter-race.g", "phil-deadlock.g"} {
		g := loadSTG(t, name)
		props, err := Parse("prop dl : deadlock_free\nprop mx : AG !(excited(a) & deadlock)")
		if err != nil {
			t.Fatal(err)
		}
		if g.SignalIndex("a") < 0 {
			props = props[:1]
		}
		for _, eng := range []Engine{EngineExplicit, EngineSymbolic} {
			rep, err := Check(g, props, Options{Engine: eng})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, eng, err)
			}
			for _, v := range rep.Verdicts {
				if v.Trace == nil {
					continue
				}
				if err := ReplayTrace(g, v.Trace); err != nil {
					t.Errorf("%s/%s/%s: %v", name, eng, v.Property.Name, err)
				}
			}
		}
	}
}
