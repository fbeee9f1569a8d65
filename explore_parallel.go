package sprout

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"sprout/internal/board"
	"sprout/internal/obs"
)

// prefixNode is one node of the shared permutation tree. The path from
// the root to a node spells a routing-order prefix; the node's snapshot
// (computed once, by routeNext on top of its parent's snapshot) is shared
// by every order passing through it.
type prefixNode struct {
	// net is the rail routed at this node (board.NetNone at the root,
	// which represents the empty prefix).
	net      board.NetID
	children []*prefixNode
	// leaf is the index of the order completed at this node (-1 when the
	// node is a proper prefix of every order through it).
	leaf int
	// leaves counts the orders whose path passes through this node — the
	// number of sequential rail routes this node's single route replaces.
	leaves int
	depth  int
	// first is the enumeration index of the earliest order through this
	// node; the pool scheduler uses it to prefer enumeration-order work.
	first int
	// entry is the rail memo entry the node shares with the other nodes
	// that route the same net after the same set of nets; nil when no
	// other node does (see shareRails).
	entry *railEntry
}

// buildPrefixTree folds the orders into a prefix tree. Orders are
// inserted in enumeration order and children keep first-insertion order,
// so the tree shape is deterministic.
func buildPrefixTree(orders [][]board.NetID) *prefixNode {
	root := &prefixNode{net: board.NetNone, leaf: -1}
	for idx, order := range orders {
		node := root
		node.leaves++
		for _, id := range order {
			var child *prefixNode
			for _, c := range node.children {
				if c.net == id {
					child = c
					break
				}
			}
			if child == nil {
				child = &prefixNode{net: id, leaf: -1, depth: node.depth + 1, first: idx}
				node.children = append(node.children, child)
			}
			child.leaves++
			node = child
		}
		node.leaf = idx
	}
	return root
}

// shareRails gives the nodes of the tree that route the same net after
// the same set of nets one railEntry, the node's entry; a node no other
// node shares a rail with keeps a nil entry. Nodes that share an entry
// may still see different available spaces (the same nets routed in
// another order claim other copper), which the entry checks before a
// node reuses its rail.
func shareRails(root *prefixNode) {
	// groups maps a key (the net, then the sorted set of nets routed
	// above it, varint-encoded) to its nodes; path holds the nets routed
	// above the node being keyed, set and buf are scratch.
	groups := map[string][]*prefixNode{}
	var path, set []board.NetID
	var buf []byte
	var walk func(node *prefixNode)
	walk = func(node *prefixNode) {
		if node.net != board.NetNone {
			set = append(set[:0], path...)
			slices.Sort(set)
			buf = binary.AppendUvarint(buf[:0], uint64(node.net))
			for _, id := range set {
				buf = binary.AppendUvarint(buf, uint64(id))
			}
			groups[string(buf)] = append(groups[string(buf)], node)
			path = append(path, node.net)
		}
		for _, c := range node.children {
			walk(c)
		}
		if node.net != board.NetNone {
			path = path[:len(path)-1]
		}
	}
	walk(root)
	for _, nodes := range groups {
		if len(nodes) < 2 {
			continue
		}
		e := &railEntry{done: make(chan struct{})}
		e.users.Store(int32(len(nodes)))
		for _, n := range nodes {
			n.entry = e
		}
	}
}

// orderOutcome is the terminal state of one enumerated order: the fully
// routed snapshot, or the error that killed its branch. Each outcome slot
// has exactly one writer — the unique tree path ending at its leaf — so
// the slice needs no lock; the slot's ready channel is closed after the
// write, publishing it to the reducer.
type orderOutcome struct {
	state *routeState
	err   error
}

// semWaiter is one goroutine queued on the priority semaphore.
type semWaiter struct {
	prio int
	ch   chan struct{}
}

// prioSem is a counting semaphore whose release wakes the waiter with
// the smallest priority value. The explorer keys waiters by their
// subtree's first enumeration index, so freed pool slots go to the
// earliest pending orders: leaves then settle in near-enumeration order
// and the reducer retires their snapshots immediately instead of letting
// out-of-order boards accumulate (live heap, hence GC mark cost, stays
// close to a sequential sweep's). Scheduling never affects results
// — only memory — because every outcome is a pure function of its order.
type prioSem struct {
	mu      sync.Mutex
	free    int
	waiters []semWaiter
}

func newPrioSem(n int) *prioSem { return &prioSem{free: n} }

func (s *prioSem) acquire(prio int) {
	s.mu.Lock()
	if s.free > 0 {
		s.free--
		s.mu.Unlock()
		return
	}
	w := semWaiter{prio: prio, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.mu.Unlock()
	<-w.ch
}

func (s *prioSem) release() {
	s.mu.Lock()
	if len(s.waiters) == 0 {
		s.free++
		s.mu.Unlock()
		return
	}
	min := 0
	for i := range s.waiters {
		if s.waiters[i].prio < s.waiters[min].prio {
			min = i
		}
	}
	w := s.waiters[min]
	s.waiters = append(s.waiters[:min], s.waiters[min+1:]...)
	s.mu.Unlock()
	close(w.ch)
}

// explorer walks the permutation tree with a bounded worker pool. The
// semaphore bounds concurrent routeNext calls (the expensive part);
// goroutines themselves are cheap and one exists per in-flight subtree.
type explorer struct {
	run  *boardRun
	nets map[board.NetID]board.Net
	sem  *prioSem
	// root is the tree being walked.
	root     *prefixNode
	wg       sync.WaitGroup
	outcomes []orderOutcome
	// ready[i] is closed once outcomes[i] is written, letting the reducer
	// consume (and release) leaf states while the walk is still running.
	ready  []chan struct{}
	hits   atomic.Int64
	misses atomic.Int64
}

// startExplorer folds orders into the prefix tree, shares its rails
// through memo entries and starts the walk. Outcome i is readable once
// ready[i] closes; the walk is over when wg is done.
func startExplorer(ctx context.Context, run *boardRun, nets map[board.NetID]board.Net, workers int, orders [][]board.NetID) *explorer {
	root := buildPrefixTree(orders)
	shareRails(root)
	x := &explorer{
		run:      run,
		nets:     nets,
		sem:      newPrioSem(workers),
		root:     root,
		outcomes: make([]orderOutcome, len(orders)),
		ready:    make([]chan struct{}, len(orders)),
	}
	for i := range x.ready {
		x.ready[i] = make(chan struct{})
	}
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		x.exec(ctx, x.root, newRouteState(), false)
	}()
	return x
}

// settle publishes a leaf outcome to the reducer.
func (x *explorer) settle(leaf int, oc orderOutcome) {
	x.outcomes[leaf] = oc
	close(x.ready[leaf])
}

// exec routes node's rail on top of the parent snapshot (root: no rail),
// records the outcome if an order completes here, and branches into the
// children. The snapshot handed to children is immutable, so sibling
// subtrees extend it concurrently without synchronization.
//
// The pool token is held from a node's route down through its first
// child's subtree (siblings go to fresh goroutines that acquire their
// own). Under a saturated pool this makes the walk depth-first: orders
// complete early and in near-enumeration order, so the reducer retires
// their snapshots while sibling branches are still queued — the walk's
// live heap stays close to one chain, not one tree.
func (x *explorer) exec(ctx context.Context, node *prefixNode, parent *routeState, held bool) {
	state := parent
	if node.net != board.NetNone {
		if !held {
			x.sem.acquire(node.first)
			held = true
		}
		net := x.nets[node.net]
		nctx, sp := obs.StartSpan(ctx, "ExploreNode",
			obs.A("net", net.Name), obs.A("depth", node.depth), obs.A("orders", node.leaves))
		tr := obs.FromContext(ctx)
		var nodeStart time.Time
		if tr.Enabled() {
			nodeStart = time.Now()
		}
		next, reused, err := x.routeNode(nctx, parent, net, node.entry)
		node.entry.release()
		sp.Fail(err)
		sp.End()
		if tr.Enabled() {
			tr.Histogram(obs.MExploreNodeMS).Observe(float64(time.Since(nodeStart)) / 1e6)
		}
		// One real route served node.leaves sequential-equivalent routes;
		// a reused rail served them all.
		if reused {
			x.hits.Add(int64(node.leaves))
		} else {
			x.misses.Add(1)
			x.hits.Add(int64(node.leaves - 1))
		}
		if err != nil {
			x.sem.release()
			x.failSubtree(node, err)
			return
		}
		state = next
	}
	if node.leaf >= 0 {
		x.settle(node.leaf, orderOutcome{state: state})
	}
	if len(node.children) == 0 {
		if held {
			x.sem.release()
		}
		return
	}
	for _, child := range node.children[1:] {
		child := child
		x.wg.Add(1)
		go func() {
			defer x.wg.Done()
			x.exec(ctx, child, state, false)
		}()
	}
	x.exec(ctx, node.children[0], state, held)
}

// routeNode is routeNext with per-node panic containment: a poisoned
// board fails its own subtree (exactly the orders a sequential run of the
// same prefix would have poisoned) and leaves the rest of the tree
// routing.
func (x *explorer) routeNode(ctx context.Context, parent *routeState, net board.Net, shared *railEntry) (state *routeState, reused bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return x.run.routeNext(ctx, parent, net, shared)
}

// failSubtree marks every order under node as failed with err and
// releases the memo entries of the nodes below it, which never route.
// Only the failing node's goroutine touches these leaves (each leaf has
// a unique path), so the writes are unsynchronized single-writer.
func (x *explorer) failSubtree(node *prefixNode, err error) {
	if node.leaf >= 0 {
		x.settle(node.leaf, orderOutcome{err: err})
	}
	for _, c := range node.children {
		c.entry.release()
		x.failSubtree(c, err)
	}
}

// reroute routes one order from the empty prefix, without the memo, and
// finalizes it. Each rail route counts as a prefix miss, like a tree
// node's.
func (x *explorer) reroute(ctx context.Context, order []board.NetID, start time.Time) (*BoardResult, error) {
	state := newRouteState()
	for _, id := range order {
		x.misses.Add(1)
		next, _, err := x.routeNode(ctx, state, x.nets[id], nil)
		if err != nil {
			return nil, fmt.Errorf("sprout: re-route checkpointed winner: %w", err)
		}
		state = next
	}
	return x.run.finalize(ctx, state, start)
}

// exploreParallel explores the orders over the shared permutation tree,
// then reduces the outcomes in enumeration order with the selection logic
// of a sequential from-scratch sweep — which is what makes the result
// bit-identical to that sweep regardless of goroutine scheduling: every
// per-order result is a deterministic function of its order alone
// (immutable snapshots, deterministic pipeline), and the winner is picked
// by the same first-strictly-better scan over the same sequence.
func exploreParallel(ctx context.Context, b *board.Board, opt RouteOptions, orders [][]board.NetID) (*OrderExploration, error) {
	workers := opt.ExploreWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := &OrderExploration{Stats: ExploreStats{Orders: len(orders), Workers: workers}}
	if cerr := ctx.Err(); cerr != nil {
		return out, cerr
	}
	runOpt := opt
	runOpt.FailFast = true
	run, err := newBoardRun(b, runOpt)
	if err != nil {
		return out, err
	}
	nets := map[board.NetID]board.Net{}
	for _, order := range orders {
		for _, id := range order {
			if _, ok := nets[id]; ok {
				continue
			}
			n, nerr := b.Net(id)
			if nerr != nil {
				return out, nerr
			}
			nets[id] = n
		}
	}

	start := time.Now()
	tr := obs.FromContext(ctx)
	tr.Counter(obs.MExploreOrders).Add(int64(len(orders)))
	tr.Gauge(obs.MExploreWorkers).Set(int64(workers))

	// Checkpoint bookkeeping. The fingerprint binds a checkpoint to this
	// exact problem (board, knobs, enumeration); done is how many leading
	// orders a resumed checkpoint already settled — the tree below is then
	// built over the unsettled suffix only, so those orders never route.
	sink, every := opt.ExploreCheckpointSink, opt.ExploreCheckpointEvery
	var hash string
	if sink != nil || opt.ExploreResume != nil {
		hash = ordersFingerprint(b, opt, orders)
	}
	var (
		ckptLog   []CheckpointOrder
		bestIndex = -1
		done      int
	)
	if ck := opt.ExploreResume; ck != nil {
		if rerr := resumeExploration(out, ck, hash, orders); rerr != nil {
			// A bad checkpoint is never fatal: reject it and sweep fresh.
			tr.Counter(obs.MExploreCkptRejected).Add(1)
		} else {
			done = ck.Done
			ckptLog = append(ckptLog, ck.Settled...)
			bestIndex = ck.BestIndex
			out.Stats.ResumedOrders = done
			tr.Counter(obs.MExploreCkptOrders).Add(int64(done))
		}
	}

	x := startExplorer(ctx, run, nets, workers, orders[done:])

	// Reduction: enumeration order, sequential selection logic — keep in
	// lockstep with the reference explorer the differential suite runs. It
	// runs concurrently with the walk, consuming each leaf as its ready
	// channel closes and dropping the snapshot immediately: losers become
	// garbage while later branches are still routing, which keeps the
	// walk's live heap (and GC mark cost) near a sequential sweep's.
	var retErr error
	for i := done; i < len(orders); i++ {
		order := orders[i]
		<-x.ready[i-done]
		oc := x.outcomes[i-done]
		x.outcomes[i-done] = orderOutcome{}
		if oc.err != nil {
			oe := orderError(order, oc.err)
			out.Failed = append(out.Failed, oe)
			if isCtxErr(oc.err) {
				// Not logged as settled: a resumed run must retry this order.
				retErr = oc.err
				break
			}
			ckptLog = append(ckptLog, CheckpointOrder{
				Index: i, Failed: true, Err: oe.Err.Error(), Kind: oe.Kind, FailedNet: int(oe.FailedNet),
			})
		} else if res, ferr := run.finalize(ctx, oc.state, start); ferr != nil {
			oe := orderError(order, ferr)
			out.Failed = append(out.Failed, oe)
			ckptLog = append(ckptLog, CheckpointOrder{
				Index: i, Failed: true, Err: oe.Err.Error(), Kind: oe.Kind, FailedNet: int(oe.FailedNet),
			})
		} else {
			out.Tried++
			score, serr := weightedResistance(b, res)
			if serr != nil {
				retErr = serr
				break
			}
			out.Evaluated = append(out.Evaluated, OrderScore{Order: order, Score: score})
			if bestIndex < 0 || score < out.BestScore {
				out.Best = res
				out.BestScore = score
				out.BestOrder = order
				bestIndex = i
			}
			ckptLog = append(ckptLog, CheckpointOrder{Index: i, Score: score})
		}
		// Emit a checkpoint of the settled frontier every N orders. Skipped
		// on the final order — the sweep is about to return its real result.
		// Sink failures are counted, never fatal.
		if sink != nil && every > 0 && (i+1)%every == 0 && i+1 < len(orders) {
			ck := &ExploreCheckpoint{
				OrdersHash: hash,
				Orders:     len(orders),
				Done:       i + 1,
				Settled:    append([]CheckpointOrder(nil), ckptLog...),
				BestIndex:  bestIndex,
				BestScore:  out.BestScore,
			}
			if serr := sink(ck); serr != nil {
				tr.Counter(obs.MExploreCkptSinkErrs).Add(1)
			} else {
				tr.Counter(obs.MExploreCkptSaved).Add(1)
			}
		}
	}
	x.wg.Wait()
	if retErr == nil && bestIndex >= 0 && bestIndex < done {
		// The winner settled before the checkpoint, which carries no
		// board: route that one order again. Determinism makes this the
		// uninterrupted sweep's board.
		out.Best, retErr = x.reroute(ctx, orders[bestIndex], start)
	}
	out.Stats.PrefixHits = x.hits.Load()
	out.Stats.PrefixMisses = x.misses.Load()
	tr.Counter(obs.MExplorePrefixHits).Add(out.Stats.PrefixHits)
	tr.Counter(obs.MExplorePrefixMisses).Add(out.Stats.PrefixMisses)
	return out, retErr
}

// resumeExploration seeds out from a checkpoint: the settled outcomes are
// replayed verbatim (same Failed/Evaluated sequences, same winning order
// and score as the run that emitted them) so the continuation is
// indistinguishable from an uninterrupted sweep. The winner's board is
// not replayed; exploreParallel re-routes it if it still wins at the end.
// Any mismatch with the current problem — wrong fingerprint, wrong
// enumeration length, an internally inconsistent frontier — is an error
// and leaves out untouched; the caller then sweeps fresh.
func resumeExploration(out *OrderExploration, ck *ExploreCheckpoint, hash string, orders [][]board.NetID) error {
	if err := ck.validate(); err != nil {
		return err
	}
	if ck.OrdersHash != hash {
		return errors.New("sprout: checkpoint fingerprint does not match this exploration")
	}
	if ck.Orders != len(orders) {
		return fmt.Errorf("sprout: checkpoint enumerates %d orders, sweep has %d", ck.Orders, len(orders))
	}
	for _, co := range ck.Settled {
		if co.Failed {
			out.Failed = append(out.Failed, OrderError{
				Order:     orders[co.Index],
				Err:       errors.New(co.Err),
				FailedNet: board.NetID(co.FailedNet),
				Kind:      co.Kind,
			})
			continue
		}
		out.Tried++
		out.Evaluated = append(out.Evaluated, OrderScore{Order: orders[co.Index], Score: co.Score})
	}
	if ck.BestIndex >= 0 {
		out.BestScore = ck.BestScore
		out.BestOrder = orders[ck.BestIndex]
	}
	return nil
}
