package core

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/tlr"
)

// The free functions build a throwaway Session and must close it: with a
// MemBudget the session holds an (unlinked) spill file open, and only Close
// — not the garbage collector's finalizer, switched off here — may be what
// releases the descriptor.
func TestFreeFunctionsCloseTheirSession(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := smallProblem(t, 200, 3)
	th := theta()
	cfg := Config{
		Mode: TLR, TileSize: 50, Accuracy: 1e-7,
		MemBudget: tlr.MinMemBudget(50, 1), SpillDir: t.TempDir(),
	}
	for name, call := range map[string]func() error{
		"LogLikelihood": func() error { _, err := LogLikelihood(p, th, cfg); return err },
		"Fit": func() error {
			_, err := Fit(p, cfg, FitOptions{Start: th, FixSmoothness: true, MaxEvals: 3})
			return err
		},
		"Predict":             func() error { _, err := Predict(p, p.Points[:2], th, cfg); return err },
		"PredictWithVariance": func() error { _, err := PredictWithVariance(p, p.Points[:2], th, cfg); return err },
	} {
		if err := call(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		for _, fd := range fds {
			if target, _ := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); strings.HasPrefix(target, cfg.SpillDir) {
				t.Errorf("%s returned with its spill file still open: fd %s -> %s", name, fd.Name(), target)
			}
		}
	}
}
