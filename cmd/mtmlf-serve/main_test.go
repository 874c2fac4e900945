package main

import (
	"runtime/debug"
	"testing"
)

// TestSizeGC: with GOGC unset, sizeGC sets the percent for the served
// weights (29 for serve_wide's 59.4 MB f32 replica, where the default
// is 100); with GOGC set it leaves the runtime's setting alone.
func TestSizeGC(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	t.Setenv("GOGC", "")
	sizeGC(59_400_000)
	if got := debug.SetGCPercent(100); got != 29 {
		t.Fatalf("GOGC unset: GC percent %d after sizeGC, want 29", got)
	}
	t.Setenv("GOGC", "50")
	debug.SetGCPercent(50)
	sizeGC(59_400_000)
	if got := debug.SetGCPercent(100); got != 50 {
		t.Fatalf("GOGC=50: GC percent %d after sizeGC, want 50", got)
	}
}
