package extract

import (
	"context"
	"fmt"

	"sprout/internal/geom"
	"sprout/internal/route"
	"sprout/internal/sparse"
)

// EdgeCurrent is the DC current in one tile-graph edge at the operating
// point.
type EdgeCurrent struct {
	U, V int
	Amps float64 // positive from U to V
}

// OperatingPoint is a full DC solution of a routed shape under a
// distributed load: the PMIC terminal sources the total current and every
// load terminal sinks its share — the paper's §III-C loading model ("the
// current demand of each rail is uniformly distributed within the ball
// grid array"). It exposes the node IR-drop map (Fig. 12c's underlying
// field) and the per-edge currents that drive the thermal analysis.
type OperatingPoint struct {
	// TG is the extraction tile graph; Cells[i] locates node i.
	TG *route.TileGraph
	// NodeDropV is the IR drop of every node below the source, in volts.
	NodeDropV []float64
	// Edges lists the branch currents.
	Edges []EdgeCurrent
	// MaxDropV is the worst drop over the load terminals.
	MaxDropV float64
	// WorstLoad indexes the loads slice entry with the worst drop.
	WorstLoad int
	// TotalPowerW is the dissipated ohmic power at the operating point.
	TotalPowerW float64
}

// DCOperate solves the distributed-load operating point of a copper shape:
// source supplies totalA amperes; each load sinks a share proportional to
// its Current weight. Context cancellation aborts the solve.
func DCOperate(ctx context.Context, shape geom.Region, source route.Terminal, loads []route.Terminal, totalA float64, opt Options) (*OperatingPoint, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()
	if totalA <= 0 {
		return nil, fmt.Errorf("extract: total current %g must be positive", totalA)
	}
	if len(loads) == 0 {
		return nil, fmt.Errorf("extract: no loads")
	}
	terms := append([]route.Terminal{source}, loads...)
	tg, err := route.BuildTileGraph(shape, terms, opt.Pitch, opt.Pitch)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	// The Laplacian is stamped from the tile graph's own adjacency with
	// its weights scaled to siemens (squares / sheetOhms).
	rowPtr, to, squares := tg.G.CSR()
	siemens := make([]float64, len(squares))
	for k, sq := range squares {
		siemens[k] = sq / opt.SheetOhms
	}
	srcNode := tg.Terminals[0]
	lap, err := sparse.ReassembleLaplacian(nil, rowPtr, to, siemens, srcNode)
	if err != nil {
		return nil, fmt.Errorf("extract: %w", err)
	}
	// Load shares.
	var wsum float64
	for _, l := range loads {
		w := l.Current
		if w <= 0 {
			w = 1
		}
		wsum += w
	}
	inj := make([]float64, tg.G.N())
	inj[srcNode] = totalA
	for i, l := range loads {
		w := l.Current
		if w <= 0 {
			w = 1
		}
		inj[tg.Terminals[i+1]] -= totalA * w / wsum
	}
	v, _, err := lap.SolveCtx(ctx, inj, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("extract: operating point: %w", err)
	}
	op := &OperatingPoint{TG: tg, NodeDropV: make([]float64, tg.G.N())}
	// Source potential is 0 (ground reference); drops are -v.
	for i, vi := range v {
		op.NodeDropV[i] = -vi
	}
	op.WorstLoad = -1
	for i := range loads {
		if d := op.NodeDropV[tg.Terminals[i+1]]; op.WorstLoad == -1 || d > op.MaxDropV {
			op.MaxDropV = d
			op.WorstLoad = i
		}
	}
	// Branch currents in row order, each edge once from its smaller
	// endpoint's row.
	op.Edges = make([]EdgeCurrent, 0, tg.G.M())
	for u := 0; u < tg.G.N(); u++ {
		for k := rowPtr[u]; k < rowPtr[u+1]; k++ {
			if x := to[k]; u < x {
				g := siemens[k]
				i := g * (v[u] - v[x])
				op.Edges = append(op.Edges, EdgeCurrent{U: u, V: x, Amps: i})
				op.TotalPowerW += i * i / g
			}
		}
	}
	return op, nil
}

// NodeJouleHeat distributes the per-edge ohmic power onto the nodes (half
// to each endpoint), the heat-source vector of the thermal analysis.
// op.Edges lists the graph's edges in row order, so the k-th edge with
// u < v met walking the rows carries op.Edges[k]'s current.
func (op *OperatingPoint) NodeJouleHeat(sheetOhms float64) []float64 {
	g := op.TG.G
	q := make([]float64, g.N())
	k := 0
	for u := 0; u < g.N(); u++ {
		to, w := g.Adj(u)
		for j, v := range to {
			if u > v {
				continue
			}
			ec := op.Edges[k]
			k++
			c := w[j] / sheetOhms
			if c <= 0 {
				continue
			}
			p := ec.Amps * ec.Amps / c
			q[ec.U] += p / 2
			q[ec.V] += p / 2
		}
	}
	return q
}
