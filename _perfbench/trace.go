package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dtm"
)

// Span names. The benchmark records spans only around its own calls into
// the facade: set-up phases, whole runs, replays, and each scheduler
// callback a run makes through the timing wrapper.
const (
	spanSetup       = "setup"
	spanGraphWarm   = "graph.warm"
	spanWorkloadGen = "workload.gen"
	spanPoolWarm    = "pool.warm"
	spanRun         = "run"
	spanReplay      = "core.replay"
	spanStart       = "engine.start"
	spanArrive      = "engine.arrive"
	spanWake        = "engine.wake"
	spanNextWake    = "engine.next_wake"
	spanLiveStats   = "engine.livestats"
)

// span is one timed interval; parent is the index of the enclosing span,
// -1 for a root.
type span struct {
	name   string
	parent int
	start  time.Duration // since the recorder's epoch
	dur    time.Duration
}

// recorder keeps spans in memory until the benchmark ends.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// open starts a span at t0 and returns its index for close and for
// children's parent.
func (r *recorder) open(name string, parent int, t0 time.Time) int {
	r.spans = append(r.spans, span{name: name, parent: parent, start: t0.Sub(r.epoch)})
	return len(r.spans) - 1
}

func (r *recorder) close(i int, t1 time.Time) {
	r.spans[i].dur = t1.Sub(r.epoch) - r.spans[i].start
}

func (r *recorder) add(name string, parent int, t0, t1 time.Time) {
	r.spans = append(r.spans, span{name: name, parent: parent, start: t0.Sub(r.epoch), dur: t1.Sub(t0)})
}

// write stores every span as one tab-separated line: index, parent,
// name, start and duration in nanoseconds.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.name, s.start.Nanoseconds(), s.dur.Nanoseconds())
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedScheduler forwards every callback to the registry scheduler and
// records a span per call under the run span.
type timedScheduler struct {
	inner dtm.Scheduler
	rec   *recorder
	run   int
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Start(env *dtm.SchedulerEnv) error {
	t0 := time.Now()
	err := t.inner.Start(env)
	t.rec.add(spanStart, t.run, t0, time.Now())
	return err
}

func (t *timedScheduler) OnArrive(txns []*dtm.Transaction) error {
	t0 := time.Now()
	err := t.inner.OnArrive(txns)
	t.rec.add(spanArrive, t.run, t0, time.Now())
	return err
}

func (t *timedScheduler) NextWake() (dtm.Time, bool) {
	t0 := time.Now()
	w, ok := t.inner.NextWake()
	t.rec.add(spanNextWake, t.run, t0, time.Now())
	return w, ok
}

func (t *timedScheduler) OnWake() error {
	t0 := time.Now()
	err := t.inner.OnWake()
	t.rec.add(spanWake, t.run, t0, time.Now())
	return err
}

// liveStatser is the optional census dtm.RunStream takes after every
// delivered batch when the scheduler offers it.
type liveStatser interface{ LiveStats() (int, int) }

// timedLiveScheduler adds the LiveStats forward for schedulers that have
// one, so that RunStream does the same work wrapped and bare.
type timedLiveScheduler struct {
	*timedScheduler
	ls liveStatser
}

func (t timedLiveScheduler) LiveStats() (int, int) {
	t0 := time.Now()
	a, b := t.ls.LiveStats()
	t.rec.add(spanLiveStats, t.run, t0, time.Now())
	return a, b
}

// timed wraps s so that its callbacks are recorded under the span run.
func timed(s dtm.Scheduler, rec *recorder, run int) dtm.Scheduler {
	ts := &timedScheduler{inner: s, rec: rec, run: run}
	if ls, ok := s.(liveStatser); ok {
		return timedLiveScheduler{ts, ls}
	}
	return ts
}
