package arch

import (
	"context"
	"runtime"
	"testing"

	"refocus/internal/nn"
)

// TestEvaluateAllParallelMatchesSerial pins the determinism contract of
// the evaluation fan-out: EvaluateAll and EvaluateGridCtx must produce
// exactly the reports a serial Evaluate loop does, in the same order,
// for any worker count (GOMAXPROCS).
func TestEvaluateAllParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	nets := nn.Table4Networks()
	cfgs := []SystemConfig{Baseline(), FF(), FB()}

	want := make([][]Report, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = make([]Report, len(nets))
		for j, n := range nets {
			want[i][j] = MustEvaluate(cfg, n)
		}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(workers)
		for i, cfg := range cfgs {
			got := MustEvaluateAll(cfg, nets)
			for j := range got {
				if got[j] != want[i][j] {
					t.Fatalf("workers=%d cfg=%s net=%s: parallel report differs from serial",
						workers, cfg.Name, nets[j].Name)
				}
			}
		}
		grid, err := EvaluateGridCtx(context.Background(), cfgs, nets)
		if err != nil {
			t.Fatal(err)
		}
		for i := range grid {
			for j := range grid[i] {
				if grid[i][j] != want[i][j] {
					t.Fatalf("workers=%d: EvaluateGridCtx[%d][%d] differs from serial", workers, i, j)
				}
			}
		}
	}
}
