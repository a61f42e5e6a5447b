package exper

import (
	"runtime"
	"sync"
)

// MultiSeedParallel is MultiSeed with one goroutine per seed batch; the
// aggregation is order-independent, so the statistics match the serial
// version exactly.
func MultiSeedParallel(baseSeed int64, seeds int, opt Options, workers int) (SeedStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || seeds <= 1 {
		return MultiSeed(baseSeed, seeds, opt)
	}
	if seeds < 1 {
		return SeedStats{}, errNeedSeed
	}

	type outcome struct {
		once, repeat float64
		err          error
	}
	outcomes := make([]outcome, seeds)
	jobs := make(chan int)
	var wg sync.WaitGroup
	if workers > seeds {
		workers = seeds
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				o := opt
				o.Seed = baseSeed + int64(i)
				t1, err := Table1(o)
				if err != nil {
					outcomes[i].err = err
					continue
				}
				t2, err := Table2(o)
				if err != nil {
					outcomes[i].err = err
					continue
				}
				outcomes[i].once, outcomes[i].repeat = Summary(append(t1, t2...))
			}
		}()
	}
	for i := 0; i < seeds; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var onces, repeats []float64
	for _, o := range outcomes {
		if o.err != nil {
			return SeedStats{}, o.err
		}
		onces = append(onces, o.once)
		repeats = append(repeats, o.repeat)
	}
	st := SeedStats{Seeds: seeds}
	st.MeanOnce, st.StdOnce = meanStd(onces)
	st.MeanRepeat, st.StdRepeat = meanStd(repeats)
	st.MinRepeat, st.MaxRepeat = repeats[0], repeats[0]
	for _, r := range repeats[1:] {
		if r < st.MinRepeat {
			st.MinRepeat = r
		}
		if r > st.MaxRepeat {
			st.MaxRepeat = r
		}
	}
	return st, nil
}
