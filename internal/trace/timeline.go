package trace

import (
	"fmt"
	"sort"
	"strings"

	"dtm/internal/core"
	"dtm/internal/graph"
)

// Timeline renders a human-readable per-object itinerary of the recorded
// run: for each object, the sequence of users in execution order with
// their nodes and times. Useful for debugging schedules and in examples.
// It reads the run through Instance, so a trace whose transactions name
// an object or node it does not have is refused with Instance's error.
func (r *Run) Timeline() (string, error) {
	in, err := r.Instance()
	if err != nil {
		return "", err
	}
	type visit struct {
		tx   core.TxID
		node graph.NodeID
		exec core.Time
	}
	perObj := make(map[core.ObjID][]visit)
	exec := make(map[core.TxID]core.Time, len(r.Decisions))
	for _, d := range r.Decisions {
		exec[d.Tx] = d.Exec
	}
	for _, tx := range in.Txns {
		for _, o := range tx.Objects {
			perObj[o] = append(perObj[o], visit{tx: tx.ID, node: tx.Node, exec: exec[tx.ID]})
		}
	}
	objs := make([]core.ObjID, 0, len(perObj))
	for o := range perObj {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "run %s on %s (makespan %d)\n", r.Scheduler, r.Topology, r.Makespan)
	for _, o := range objs {
		vs := perObj[o]
		sort.Slice(vs, func(i, j int) bool {
			if vs[i].exec != vs[j].exec {
				return vs[i].exec < vs[j].exec
			}
			return vs[i].tx < vs[j].tx
		})
		fmt.Fprintf(&b, "obj %-3d @n%-3d", o, in.Objects[o].Origin)
		for _, v := range vs {
			fmt.Fprintf(&b, " -> tx%d@n%d t=%d", v.tx, v.node, v.exec)
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
