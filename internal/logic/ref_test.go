package logic

import (
	"fmt"

	"repro/internal/boolmin"
	"repro/internal/stg"
	"repro/internal/ts"
)

// The per-signal reference implementations the shared-extraction pool is
// checked against (pool_test.go): every signal is derived by its own scan
// of the state graph, one at a time.

// DeriveAllRef derives every non-input signal's function with Derive.
func DeriveAllRef(g *ts.SG) ([]Function, error) {
	var out []Function
	for sig, s := range g.Signals {
		if s.Kind != stg.Output && s.Kind != stg.Internal {
			continue
		}
		f, err := Derive(g, sig)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// SynthesizeRef synthesizes every non-input signal with synthesizeSignal.
func SynthesizeRef(g *ts.SG, style Style) (*Netlist, error) {
	nl := &Netlist{Name: g.Name}
	for _, s := range g.Signals {
		nl.AddSignal(s.Name, s.Kind)
	}
	for sig, s := range g.Signals {
		if s.Kind != stg.Output && s.Kind != stg.Internal {
			continue
		}
		gate, err := synthesizeSignal(g, sig, style)
		if err != nil {
			return nil, err
		}
		nl.Gates = append(nl.Gates, gate)
	}
	if err := nl.Validate(); err != nil {
		return nil, fmt.Errorf("logic: synthesized netlist invalid: %w", err)
	}
	return nl, nil
}

func synthesizeSignal(g *ts.SG, sig int, style Style) (Gate, error) {
	if style == ComplexGate {
		f, err := Derive(g, sig)
		if err != nil {
			return Gate{}, err
		}
		return Gate{Kind: Comb, Output: sig, F: f.Cover}, nil
	}
	set, reset, err := SetResetCovers(g, sig)
	if err != nil {
		return Gate{}, err
	}
	kind := CElem
	if style == StandardC {
		kind = RSLatch
	}
	return Gate{Kind: kind, Output: sig, Set: set, Reset: reset}, nil
}

// SetResetCovers derives the set and reset networks of signal sig:
//
//	set:   on = ER(z+) codes, off = ER(z-) ∪ QR(z-) codes, dc = QR(z+) ∪ unreachable
//	reset: on = ER(z-) codes, off = ER(z+) ∪ QR(z+) codes, dc = QR(z-) ∪ unreachable
//
// This is the monotonous-cover discipline: the set network may stay asserted
// through the quiescent-high region but must be off wherever the signal is
// low or falling.
func SetResetCovers(g *ts.SG, sig int) (set, reset boolmin.Cover, err error) {
	n := len(g.Signals)
	// Classify codes by the strongest region among their states. Codes are
	// kept in first-seen state order so the minimizer sees a deterministic
	// minterm order (and the same order the shared-extraction path emits).
	type codeInfo struct {
		code                             ts.Code
		erPlus, erMinus, qrPlus, qrMinus bool
	}
	byCode := map[ts.Code]int{}
	var infos []codeInfo
	for s := range g.States {
		c := g.States[s].Code
		i, ok := byCode[c]
		if !ok {
			i = len(infos)
			byCode[c] = i
			infos = append(infos, codeInfo{code: c})
		}
		ci := &infos[i]
		switch RegionOf(g, s, sig) {
		case ERPlus:
			ci.erPlus = true
		case ERMinus:
			ci.erMinus = true
		case QRPlus:
			ci.qrPlus = true
		case QRMinus:
			ci.qrMinus = true
		}
	}
	var setOn, setOff, resetOn, resetOff []uint64
	for _, ci := range infos {
		c := ci.code
		m := uint64(c)
		if ci.erPlus && (ci.erMinus || ci.qrMinus) || ci.erMinus && ci.qrPlus {
			return set, reset, &CSCError{Signal: g.Signals[sig].Name, Code: c, N: n}
		}
		switch {
		case ci.erPlus:
			setOn = append(setOn, m)
			resetOff = append(resetOff, m)
		case ci.erMinus:
			resetOn = append(resetOn, m)
			setOff = append(setOff, m)
		case ci.qrPlus:
			resetOff = append(resetOff, m)
			// set is don't-care in QR+.
		case ci.qrMinus:
			setOff = append(setOff, m)
			// reset is don't-care in QR-.
		}
	}
	set = boolmin.MinimizeOnOff(setOn, setOff, n)
	reset = boolmin.MinimizeOnOff(resetOn, resetOff, n)
	return set, reset, nil
}
