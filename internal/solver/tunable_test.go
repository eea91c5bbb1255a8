package solver

import (
	"runtime"
	"testing"
)

// The startup-tunable knobs must round-trip through their setters, restore
// their documented fallbacks on sentinel values, and actually steer the
// auto-resolution rules they back.
func TestTunableSettersRoundTrip(t *testing.T) {
	defer SetAutoIC0Threshold(0)
	defer SetAutoMulticolorWidth(-1)
	defer SetDefaultWorkers(0)

	if got := AutoIC0Threshold(); got != DefaultAutoIC0Threshold {
		t.Fatalf("AutoIC0Threshold() = %d at startup, want default %d", got, DefaultAutoIC0Threshold)
	}
	if prev := SetAutoIC0Threshold(9000); prev != DefaultAutoIC0Threshold {
		t.Errorf("SetAutoIC0Threshold returned prev %d, want %d", prev, DefaultAutoIC0Threshold)
	}
	// The amortized crossover must follow the installed threshold.
	if got := PrecondAuto.ResolveAmortized(8997); got != PrecondBlockJacobi3 {
		t.Errorf("ResolveAmortized(8997) under threshold 9000 = %v, want block-jacobi3", got)
	}
	if got := PrecondAuto.ResolveAmortized(9000); got != PrecondIC0 {
		t.Errorf("ResolveAmortized(9000) under threshold 9000 = %v, want ic0", got)
	}
	SetAutoIC0Threshold(0) // sentinel restores the default
	if got := AutoIC0Threshold(); got != DefaultAutoIC0Threshold {
		t.Errorf("SetAutoIC0Threshold(0) left %d, want default %d", got, DefaultAutoIC0Threshold)
	}

	// Width 0 is meaningful: no natural schedule is narrower than zero rows,
	// so OrderingAuto never switches to multicolor. The rule only considers
	// multicolor when the process runs parallel kernels.
	SetDefaultWorkers(8)
	SetAutoMulticolorWidth(0)
	if got := OrderingFromWidth(OrderingAuto, 1<<20, 1); got != OrderingNatural {
		t.Errorf("OrderingFromWidth with width threshold 0 = %v, want natural", got)
	}
	SetAutoMulticolorWidth(128)
	if got := OrderingFromWidth(OrderingAuto, 1<<20, 100); got != OrderingMulticolor {
		t.Errorf("OrderingFromWidth(width=100) under threshold 128 = %v, want multicolor", got)
	}
	SetDefaultWorkers(0)
	SetAutoMulticolorWidth(-1)
	if got := AutoMulticolorWidth(); got != DefaultAutoMulticolorWidth {
		t.Errorf("SetAutoMulticolorWidth(-1) left %d, want default %d", got, DefaultAutoMulticolorWidth)
	}

	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("DefaultWorkers() = %d at startup, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	SetDefaultWorkers(3)
	if got := DefaultWorkers(); got != 3 {
		t.Errorf("DefaultWorkers() = %d after SetDefaultWorkers(3)", got)
	}
	if got := normWorkers(0); got != 3 {
		t.Errorf("normWorkers(0) = %d under a worker default of 3", got)
	}
	SetDefaultWorkers(0)
	if got := DefaultWorkers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("SetDefaultWorkers(0) left %d, want GOMAXPROCS fallback", got)
	}
}
