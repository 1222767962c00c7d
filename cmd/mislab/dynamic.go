package main

// The -dynamic mode: bootstrap a MIS with the chosen static algorithm,
// replay an update stream through the localized repair engine, and report
// the per-update cost next to what re-running the static algorithm after
// each update would have spent.

import (
	"fmt"

	energymis "github.com/energymis/energymis"
)

func runDynamic(g *energymis.Graph, algoName, streamKind, tracePath string, updates, batch, window int, seed uint64, check bool) error {
	if updates < 0 {
		return fmt.Errorf("-updates must not be negative, got %d", updates)
	}
	if window < 0 {
		return fmt.Errorf("-window must not be negative, got %d", window)
	}
	algos, err := pickAlgos(algoName)
	if err != nil {
		return err
	}
	algo := algos[0] // "all" makes no sense for a stateful engine; use the first

	var trace [][]energymis.Update
	switch streamKind {
	case "churn":
		trace = energymis.ChurnStream(g, updates, batch, seed+1)
	case "window":
		// The sliding-window model owns the whole edge set (edges arrive
		// and expire), so it starts from an empty graph on the same nodes.
		g = energymis.NewBuilder(g.N()).Build()
		fmt.Println("(window stream starts from an empty graph; the generated edges are ignored)")
		trace = energymis.WindowStream(g.N(), 4*g.N(), updates, seed+1)
	case "hub":
		trace = energymis.HubAttackStream(g, updates, seed+1)
	default:
		return fmt.Errorf("unknown stream %q (churn, window, hub)", streamKind)
	}

	d, err := energymis.NewDynamic(g, algo, energymis.DynamicOptions{
		Seed: seed, Window: window, TracePath: tracePath,
	})
	if err != nil {
		return err
	}
	st0 := d.Stats()
	fmt.Printf("bootstrap %s: rounds=%d awakeTotal=%d msgs=%d mis=%d\n\n",
		algo, st0.BootstrapRounds, st0.BootstrapAwake, st0.BootstrapMessages, d.MISSize())

	if window > 0 {
		// Coalescing mode: hand the whole stream to the engine and let the
		// window decide the repair batches. Per-batch Check is meaningless
		// here (the engine re-batches), so verify once at the end.
		if _, err := d.ApplyBatch(energymis.FlattenStream(trace)); err != nil {
			return err
		}
		if check {
			if err := d.Check(); err != nil {
				return err
			}
		}
	} else {
		for i, b := range trace {
			if _, err := d.Apply(b); err != nil {
				return fmt.Errorf("batch %d: %w", i, err)
			}
			if check {
				if err := d.Check(); err != nil {
					return fmt.Errorf("batch %d: %w", i, err)
				}
			}
		}
	}
	if err := d.Close(); err != nil {
		return err
	}
	st := d.Stats()
	fmt.Printf("stream %s: batches=%d updates=%d elections=%d\n",
		streamKind, st.Batches, st.Updates, st.Elections)
	if st.Updates == 0 {
		fmt.Println("no updates applied")
		return nil
	}
	fmt.Printf("repair cost: awake/update=%.2f woken/update=%.2f msgs/update=%.2f maxRegion=%d\n",
		float64(st.AwakeTotal)/float64(st.Updates),
		float64(st.WokenTotal)/float64(st.Updates),
		float64(st.Messages)/float64(st.Updates), st.MaxRegion)
	fmt.Printf("churn: evictions=%d joins=%d | final: n=%d m=%d mis=%d\n",
		st.Evictions, st.Joins, d.AliveCount(), d.M(), d.MISSize())
	if tracePath != "" {
		fmt.Printf("trace: %s\n", tracePath)
	}

	// What the static alternative would spend per update, on the final
	// topology.
	snap, _, _ := d.Snapshot()
	res, err := energymis.Run(snap, algo, energymis.Options{Seed: seed})
	if err != nil {
		return err
	}
	var staticAwake int64
	for _, a := range res.AwakePerNode {
		staticAwake += a
	}
	perUpdate := float64(st.AwakeTotal) / float64(st.Updates)
	fmt.Printf("recompute-per-update would spend awake/update=%d (repair saves %.0fx)\n",
		staticAwake, float64(staticAwake)/perUpdate)
	return nil
}
