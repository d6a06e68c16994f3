package logic

import "repro/internal/ts"

// Style selects the target architecture of synthesis (Section 3.2/3.4 and
// Figure 8).
type Style int

const (
	// ComplexGate implements each next-state function as one atomic complex
	// gate with feedback ("any circuit implementing the next-state function
	// of each signal with only one atomic complex gate is speed
	// independent").
	ComplexGate Style = iota
	// GeneralizedC implements each signal as a generalized C-element with
	// separate set and reset networks (monotonous cover architecture,
	// Figure 8a).
	GeneralizedC
	// StandardC implements each signal with a reset-dominant RS latch plus
	// set/reset networks (Figure 8b).
	StandardC
)

func (s Style) String() string {
	switch s {
	case ComplexGate:
		return "complex-gate"
	case GeneralizedC:
		return "gC"
	case StandardC:
		return "rs-latch"
	}
	return "?"
}

// Synthesize derives a netlist implementing every non-input signal of the
// state graph in the chosen architecture. The SG must satisfy CSC; a
// *CSCError is returned otherwise.
func Synthesize(g *ts.SG, style Style) (*Netlist, error) {
	return SynthesizeOpts(g, style, Options{})
}

// EquationsFor is a convenience: full complex-gate synthesis returning the
// printable equations (the Section 3.2 result format).
func EquationsFor(g *ts.SG) (string, error) {
	nl, err := Synthesize(g, ComplexGate)
	if err != nil {
		return "", err
	}
	return nl.Equations(), nil
}
