package serve

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"duet/internal/core"
	"duet/internal/made"
	"duet/internal/relation"
	"duet/internal/workload"
)

// TestConcurrentEstimatesMatchSerialReference is the Backend concurrency
// contract on a real core.Model: goroutines mixing coalesced Estimate
// calls, direct EstimateBatch calls and raw EstimateCardBatch calls on one
// shared model (no engine lock exists) must each get exactly the estimate a
// single-threaded EstimateCardBatch over the whole workload produced, bit
// for bit. Run under -race it also proves the shared plan and the pooled
// workspaces are free of data races.
func TestConcurrentEstimatesMatchSerialReference(t *testing.T) {
	tbl := relation.SynDMV(2000, 7)
	qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 200))
	mpsn := func(merge bool) func() *core.Model {
		return func() *core.Model {
			cfg := core.DefaultConfig()
			cfg.MPSN, cfg.MPSNHidden, cfg.MPSNOut = core.MPSNMLP, 16, 8
			m := core.NewModel(tbl, cfg)
			if merge {
				if err := m.Merge(); err != nil {
					t.Fatal(err)
				}
			}
			return m
		}
	}
	variants := []struct {
		name  string
		model func() *core.Model
	}{
		{"f32", func() *core.Model { return core.NewModel(tbl, core.DefaultConfig()) }},
		{"int8", func() *core.Model {
			m := core.NewModel(tbl, core.DefaultConfig())
			m.SetPlanConfig(made.PlanConfig{Quantize: true})
			return m
		}},
		{"mlp-mpsn", mpsn(false)},
		{"mlp-mpsn-merged", mpsn(true)},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			m := v.model()
			ref := m.EstimateCardBatch(qs)
			e := New(m, Config{MaxBatch: 16, FlushWindow: 50e3, CacheSize: -1})
			defer e.Close()
			ctx := context.Background()
			check := func(what string, idx []int, got []float64) error {
				for j, i := range idx {
					if math.Float64bits(got[j]) != math.Float64bits(ref[i]) {
						return fmt.Errorf("%s: query %d = %v, serial reference %v", what, i, got[j], ref[i])
					}
				}
				return nil
			}
			const workers, iters = 6, 24
			errs := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for it := 0; it < iters; it++ {
						lo := rng.Intn(len(qs))
						hi := min(len(qs), lo+1+rng.Intn(40))
						idx := make([]int, 0, hi-lo)
						for i := lo; i < hi; i++ {
							idx = append(idx, i)
						}
						var err error
						switch (w + it) % 3 {
						case 0:
							var card float64
							card, err = e.Estimate(ctx, qs[lo])
							if err == nil {
								err = check("Estimate", idx[:1], []float64{card})
							}
						case 1:
							var cards []float64
							cards, err = e.EstimateBatch(ctx, qs[lo:hi])
							if err == nil {
								err = check("EstimateBatch", idx, cards)
							}
						default:
							err = check("EstimateCardBatch", idx, m.EstimateCardBatch(qs[lo:hi]))
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}
