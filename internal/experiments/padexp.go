package experiments

import (
	"fmt"

	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/greedy"
	"dtm/internal/obs"
	"dtm/internal/runner"
	"dtm/internal/sched"
	"dtm/internal/stats"
	"dtm/internal/workload"
)

// figure13Padding closes the loop on the bounded-capacity open problem:
// the padded greedy scheduler (an extension: every dependency edge weight
// scaled by a factor, leaving slack for link queueing) against the
// oblivious one, both replayed on capacity-1 links with elastic commits.
// "Stall" is the gap between a transaction's decided and actual commit
// time — the congestion the scheduler failed to anticipate.
func figure13Padding(cfg Config) (*stats.Table, error) {
	t := stats.NewTable("Figure 13 — congestion-aware padding under capacity-1 links",
		"scheduler", "decided makespan", "actual makespan", "max stall", "mean stall")
	n := 6
	if cfg.Quick {
		n = 4
	}
	g, err := graph.Grid(n, n)
	if err != nil {
		return nil, err
	}
	var points []runner.Point
	for _, pad := range []int{1, 2, 3} {
		pad := pad
		name := "greedy (oblivious)"
		if pad > 1 {
			name = fmt.Sprintf("greedy+pad%d", pad)
		}
		points = append(points, runner.Point{
			Cells: []runner.Cell{{Name: name, Run: func(seed int64, m *obs.Metrics) (runner.Outcome, error) {
				in, err := workload.Generate(g, workload.Config{
					K: 2, NumObjects: g.N() / 2, Rounds: 3,
					Arrival: workload.ArrivalPeriodic, Period: core.Time(g.Diameter()),
					Pop: workload.PopHotspot, Seed: seed,
				})
				if err != nil {
					return runner.Outcome{}, err
				}
				rr, err := sched.Run(in, greedy.New(greedy.Options{Pad: pad}), sched.Options{SnapshotEvery: -1, Obs: m})
				if err != nil {
					return runner.Outcome{}, err
				}
				res, err := core.Replay(in, rr.Decisions, core.SimOptions{LinkCapacity: 1}, nil)
				if err != nil {
					return runner.Outcome{}, err
				}
				// Stall per transaction: actual commit minus decided time.
				decided := make(map[core.TxID]core.Time, len(rr.Decisions))
				for _, d := range rr.Decisions {
					decided[d.Tx] = d.Exec
				}
				var maxStall, sumStall core.Time
				for _, tx := range in.Txns {
					actual := res.Latency[tx.ID] + tx.Arrival
					stall := actual - decided[tx.ID]
					if stall > maxStall {
						maxStall = stall
					}
					sumStall += stall
				}
				out := runner.FromRunResult(rr)
				out.Extra = map[string]float64{
					"actualMkspan": float64(res.Makespan),
					"maxStall":     float64(maxStall),
					"meanStall":    float64(sumStall) / float64(len(in.Txns)),
				}
				return out, nil
			}}},
			Row: func(cs []runner.Agg) ([]string, error) {
				if err := runner.FirstErr(cs); err != nil {
					return nil, err
				}
				c := cs[0]
				return []string{name, c.Int(c.Makespan), c.Int(c.X("actualMkspan")),
					c.Int(c.X("maxStall")), c.F2(c.X("meanStall").Mean)}, nil
			},
		})
	}
	return runSweep(cfg, 1, t, points)
}
