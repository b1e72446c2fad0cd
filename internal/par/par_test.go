package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// TestDoRunsEachIndexOnce checks that every index runs exactly once, with
// no index outside [0, n), for no items, one item, fewer items than
// workers and more.
func TestDoRunsEachIndexOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{0, 1, 3, 4, 5, 257} {
		counts := make([]atomic.Int64, n)
		Do(n, func(i int) {
			if i < 0 || i >= n {
				t.Errorf("n=%d: index %d out of range", n, i)
				return
			}
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("n=%d: index %d ran %d times", n, i, c)
			}
		}
	}
}
