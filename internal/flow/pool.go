package flow

import (
	"fmt"
	"runtime/debug"
	"sync"
)

// runPool runs task(0), …, task(n-1) on min(parallelism, n) goroutines,
// handing the indices out in order, and returns each task's error in index
// order. Every task is granted share = parallelism/workers of the budget
// for its own nested work (a build's split-layer attacks), so nested
// pools never multiply past parallelism. This is the one place the flow
// splits a parallelism budget; callers pass parallelism >= 1.
//
// A panic in task i becomes task i's error, carrying the panic value and
// stack, so one failing defense build or layer attack fails its caller
// instead of the whole process. failed, when non-nil, sees every error as
// soon as its task ends (the suite cancels its remaining jobs there).
func runPool(n, parallelism int, task func(i, share int) error, failed func(error)) []error {
	errs := make([]error, n)
	workers := min(parallelism, n)
	share := parallelism / max(workers, 1) // >= 1: workers <= parallelism
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = runTask(i, share, task)
				if errs[i] != nil && failed != nil {
					failed(errs[i])
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return errs
}

// runTask runs one pool task, recovering a panic into its error.
func runTask(i, share int, task func(i, share int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("flow: task %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return task(i, share)
}
