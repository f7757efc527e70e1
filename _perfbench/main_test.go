package main

import (
	"flag"
	"maps"
	"reflect"
	"testing"

	"dtm"
)

// small returns w shrunk to n arrivals, for tests.
func small(w *workload, n int) *workload {
	c := *w
	if c.stream() {
		c.arrivals = n
	} else {
		cfg := *w.finiteCfg
		cfg.Rounds = n / 1024 // one transaction per Grid(32,32) node and round
		c.finiteCfg = &cfg
	}
	return &c
}

// deterministic drops the one wall-clock instrument from a snapshot.
func deterministic(s *dtm.MetricsSnapshot) *dtm.MetricsSnapshot {
	c := *s
	c.Histograms = maps.Clone(s.Histograms)
	delete(c.Histograms, "sched.snapshot_ns")
	return &c
}

// TestTimedWrapperIsTransparent runs every workload bare and through the
// timing wrapper and requires the same schedule, decision log and
// deterministic metrics, including the LiveStats-fed stream.live_state
// gauge that a wrapper without the LiveStats forward would change.
func TestTimedWrapperIsTransparent(t *testing.T) {
	for _, full := range workloads {
		w := small(full, 2048)
		t.Run(w.name, func(t *testing.T) {
			in, _, err := w.setup(7, nil)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := w.run(in, nil, w.parallel)
			if err != nil {
				t.Fatal(err)
			}
			rec := newRecorder()
			wrapped, err := w.run(in, rec, w.parallel)
			if err != nil {
				t.Fatal(err)
			}
			if bare.q != wrapped.q {
				t.Fatalf("schedule differs:\nbare    %+v\nwrapped %+v", bare.q, wrapped.q)
			}
			if b, wr := deterministic(bare.metrics), deterministic(wrapped.metrics); !reflect.DeepEqual(b, wr) {
				t.Fatalf("metrics differ:\nbare    counters %v gauges %v\nwrapped counters %v gauges %v",
					b.Counters, b.Gauges, wr.Counters, wr.Gauges)
			}
			if w.stream() {
				b, wr := streamDigest(t, w, in, nil), streamDigest(t, w, in, rec)
				if b != wr {
					t.Fatalf("decision digests differ: bare %x, wrapped %x", b, wr)
				}
			}
			if len(rec.spans) == 0 {
				t.Fatal("wrapped run recorded no spans")
			}
		})
	}
}

// streamDigest runs a stream workload with its decision log collected and
// returns the log's digest.
func streamDigest(t *testing.T, w *workload, in *input, rec *recorder) uint64 {
	t.Helper()
	s, err := dtm.NewEngine(w.engine)
	if err != nil {
		t.Fatal(err)
	}
	if rec != nil {
		s = timed(s, rec, -1)
	}
	res, err := dtm.RunStream(in.g, in.objects, &sliceSource{arr: in.arrivals}, s, dtm.StreamOptions{
		Sim: dtm.SimOptions{Parallel: w.parallel}, CollectDecisions: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Decisions) != in.n {
		t.Fatalf("%d decisions for %d arrivals", len(res.Decisions), in.n)
	}
	return digest(res.Decisions)
}

// TestQueuePeaksMatchRunStream checks that the finite workload's
// queue_peak, computed from commit times, samples the queue exactly as
// dtm.RunStream does.
func TestQueuePeaksMatchRunStream(t *testing.T) {
	for _, full := range workloads {
		if !full.stream() {
			continue
		}
		w := small(full, 2048)
		t.Run(w.name, func(t *testing.T) {
			in, _, err := w.setup(3, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := dtm.NewEngine(w.engine)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dtm.RunStream(in.g, in.objects, &sliceSource{arr: in.arrivals}, s,
				dtm.StreamOptions{CollectDecisions: true})
			if err != nil {
				t.Fatal(err)
			}
			inst := instanceOf(in.g, in.objects, in.arrivals)
			lat := make([]dtm.Time, len(inst.Txns))
			for _, d := range res.Decisions {
				lat[d.Tx] = d.Exec - inst.Txns[d.Tx].Arrival
			}
			peak, first, second := queuePeaks(inst, lat)
			got := [3]int64{peak, first, second}
			want := [3]int64{res.QueuePeak, res.QueuePeakFirstHalf, res.QueuePeakSecondHalf}
			if got != want {
				t.Fatalf("queue peaks %v, RunStream reports %v", got, want)
			}
		})
	}
}

// TestGateCatchesLostArrival checks that a run whose input lost an
// arrival fails the correctness gate.
func TestGateCatchesLostArrival(t *testing.T) {
	w := small(workloads[0], 1024)
	in, _, err := w.setup(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	in.n++ // the gate now expects one arrival more than the source yields
	if _, err := w.run(in, nil, w.parallel); err == nil {
		t.Fatal("gate passed a run that committed fewer arrivals than expected")
	}
}

var lambdaStar = flag.Bool("lambdastar", false, "run TestLambdaStar: bisect each stream workload's stable rate")

// TestLambdaStar bisects, for each stream workload at its own size, the
// largest arrival rate the engine sustains under the T14 half-peak rule
// (second-half queue peak at most 1.5x the first-half peak, plus 32), and
// logs its margin over the workload's rate. Above that rate the queue
// grows for as long as the run lasts, and arrivals_per_s would measure
// the run length instead of the code. Run with
//
//	go test -run TestLambdaStar -lambdastar -v .
func TestLambdaStar(t *testing.T) {
	if !*lambdaStar {
		t.Skip("needs -lambdastar")
	}
	for _, w := range workloads {
		if !w.stream() {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			in, _, err := w.setup(1, nil)
			if err != nil {
				t.Fatal(err)
			}
			stable := func(rate float64) bool {
				src, err := w.source(in.g, 1, rate)
				if err != nil {
					t.Fatal(err)
				}
				s, err := dtm.NewEngine(w.engine)
				if err != nil {
					t.Fatal(err)
				}
				res, err := dtm.RunStream(in.g, in.objects, src, s, dtm.StreamOptions{
					Sim: dtm.SimOptions{Parallel: w.parallel}, MaxArrivals: int64(w.arrivals),
				})
				if err != nil {
					t.Fatal(err)
				}
				ok := 2*res.QueuePeakSecondHalf <= 3*res.QueuePeakFirstHalf+32
				t.Logf("λ=%.4f queue halves %d/%d stable=%v", rate, res.QueuePeakFirstHalf, res.QueuePeakSecondHalf, ok)
				return ok
			}
			rate := w.streamCfg.Rate
			lo := rate
			if !stable(lo) {
				t.Fatalf("unstable at its own rate λ=%g", lo)
			}
			hi := 2 * lo
			for stable(hi) {
				lo, hi = hi, 2*hi
			}
			for i := 0; i < 6; i++ {
				if mid := (lo + hi) / 2; stable(mid) {
					lo = mid
				} else {
					hi = mid
				}
			}
			t.Logf("%s: λ*≈%.3f (in [%.3f, %.3f]), %.2fx the workload's λ=%g", w.name, lo, lo, hi, lo/rate, rate)
		})
	}
}
