// Package par is the module's one worker pool: every fan-out of
// independent items goes through Do.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Do runs fn(0..n-1) across runtime.GOMAXPROCS workers, handing out
// indices through an atomic counter so uneven items stay balanced. fn must
// write only to its own index's state; results are then independent of the
// worker count.
func Do(n int, fn func(i int)) {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int64
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
