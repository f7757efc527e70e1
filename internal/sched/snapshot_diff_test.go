package sched_test

// Differential check of the incremental ratio snapshots: a wrapper
// recomputes every snapshot from scratch (the live set by a scan of the
// instance, the bound by lowerbound.Estimate), and each RatioPoint the
// driver reports must agree with it.

import (
	"fmt"
	"testing"

	"dtm/internal/core"
	"dtm/internal/distbucket"
	"dtm/internal/distnet"
	"dtm/internal/lowerbound"
	"dtm/internal/sched"
)

// scratchSnapshot is one snapshot recomputed from scratch.
type scratchSnapshot struct {
	at   core.Time
	live []core.TxID
	lb   core.Time
}

// snapshotChecker wraps a scheduler. The driver takes a snapshot right
// before the OnArrive of every every-th batch, so that OnArrive sees the
// sim state the snapshot saw and recomputes it there.
type snapshotChecker struct {
	sched.Scheduler
	every int
	calls int
	env   *sched.Env
	snaps []scratchSnapshot
}

func (c *snapshotChecker) Start(env *sched.Env) error {
	c.env = env
	return c.Scheduler.Start(env)
}

func (c *snapshotChecker) OnArrive(txns []*core.Transaction) error {
	if c.calls%c.every == 0 {
		sim, t := c.env.Sim, c.env.Sim.Now()
		var live []*core.Transaction
		var ids []core.TxID
		for _, tx := range sim.Instance().Txns {
			if tx.Arrival > t {
				continue
			}
			if et, ok := sim.Executed(tx.ID); ok && et < t {
				continue
			}
			live = append(live, tx)
			ids = append(ids, tx.ID)
		}
		lb := lowerbound.Estimate(lowerbound.Input{G: c.env.G, Now: t, Txns: live, Avail: lowerbound.SnapshotAvail(sim, live)})
		c.snaps = append(c.snaps, scratchSnapshot{at: t, live: ids, lb: lb})
	}
	c.calls++
	return c.Scheduler.OnArrive(txns)
}

// Abandoned and SlowFactor forward the optional Scheduler methods.
func (c *snapshotChecker) Abandoned() []core.TxID {
	if ab, ok := c.Scheduler.(interface{ Abandoned() []core.TxID }); ok {
		return ab.Abandoned()
	}
	return nil
}

func (c *snapshotChecker) SlowFactor() int {
	if sf, ok := c.Scheduler.(interface{ SlowFactor() int }); ok {
		return sf.SlowFactor()
	}
	return 0
}

// compare checks rr's ratio trace against the recomputed snapshots.
func (c *snapshotChecker) compare(t *testing.T, name string, rr *sched.RunResult) {
	t.Helper()
	if len(rr.Ratios) != len(c.snaps) || len(c.snaps) == 0 {
		t.Fatalf("%s: %d ratio points, %d recomputed snapshots", name, len(rr.Ratios), len(c.snaps))
	}
	exec := map[core.TxID]core.Time{}
	for _, d := range rr.Decisions {
		exec[d.Tx] = d.Exec
	}
	for i, rp := range rr.Ratios {
		sn := c.snaps[i]
		var maxRem core.Time
		for _, id := range sn.live {
			if e, ok := exec[id]; ok && e-sn.at > maxRem {
				maxRem = e - sn.at
			}
		}
		if rp.At != sn.at || rp.LiveTxns != len(sn.live) || rp.LB != sn.lb || rp.MaxRem != maxRem {
			t.Fatalf("%s: snapshot %d is {At %d, LiveTxns %d, LB %d, MaxRem %d}, from scratch {%d, %d, %d, %d}",
				name, i, rp.At, rp.LiveTxns, rp.LB, rp.MaxRem, sn.at, len(sn.live), sn.lb, maxRem)
		}
	}
}

func TestSnapshotsMatchFromScratch(t *testing.T) {
	crashed := distbucket.FaultOptions{Plan: distnet.FaultPlan{Crashes: []distnet.CrashWindow{
		{Node: 1, From: 0, To: 1 << 30},
		{Node: 4, From: 3, To: 40},
	}}}
	abandoned := 0
	for topo, g := range diffTopologies(t) {
		for seed := int64(1); seed <= 2; seed++ {
			in := goldenInstance(t, g, 3, seed)
			engines := append(runEngines(), goldenEngine{"distributed-crashed", func() sched.Scheduler {
				return distbucket.New(distbucket.Options{Seed: seed, Faults: crashed})
			}, core.SimOptions{}})
			for _, e := range engines {
				for _, every := range []int{1, 3} {
					name := fmt.Sprintf("%s/%s/seed%d/every%d", topo, e.name, seed, every)
					c := &snapshotChecker{Scheduler: e.mk(), every: every}
					rr, err := sched.Run(in, c, sched.Options{Sim: e.sim, SnapshotEvery: every})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					c.compare(t, name, rr)
					if e.name == "distributed-crashed" {
						abandoned += len(rr.Abandoned)
					}
				}
			}
		}
	}
	if abandoned == 0 {
		t.Error("no distributed run with crashed origins abandoned a transaction")
	}
}
