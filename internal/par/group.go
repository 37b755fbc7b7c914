package par

import "sync"

// Group runs tasks with bounded concurrency and collects the first error.
// Per-source kernels (the diameter searches in internal/stats) run their
// sources through a Group whose limit bounds the O(S·(m+n)) working
// memory, matching the paper's memory model.
type Group struct {
	sem  chan struct{}
	wg   sync.WaitGroup
	once sync.Once
	err  error
}

// NewGroup returns a Group allowing at most limit concurrent tasks.
// limit <= 0 means Workers().
func NewGroup(limit int) *Group {
	if limit <= 0 {
		limit = Workers()
	}
	return &Group{sem: make(chan struct{}, limit)}
}

// Go schedules task, blocking while the concurrency limit is saturated.
func (g *Group) Go(task func() error) {
	g.sem <- struct{}{}
	g.wg.Add(1)
	go func() {
		defer func() {
			<-g.sem
			g.wg.Done()
		}()
		if err := task(); err != nil {
			g.once.Do(func() { g.err = err })
		}
	}()
}

// Wait blocks until every scheduled task finished and returns the first
// error any task produced.
func (g *Group) Wait() error {
	g.wg.Wait()
	return g.err
}
