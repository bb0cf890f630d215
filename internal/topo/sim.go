package topo

import (
	"fmt"
	"sort"

	"busarb/internal/core"
)

// Hop is one level's resolution within a tree arbitration, root
// first. LineUp is the time the winning request line at that level
// was asserted: the winning agent's request time at the leaf level,
// the winning cluster's line-assert time at internal levels — so
// (resolve time − LineUp) is the per-hop wait the observability layer
// reports.
type Hop struct {
	// Level is the arbitration level, 0 at the root.
	Level int
	// LineUp is when the winning line at this level went high.
	LineUp float64
}

// simNode is one tree node.
type simNode struct {
	proto    core.Protocol
	parent   int // node index, -1 at the root
	childIdx int // 1-based identity on the parent's bus
	level    int // 0 at the root
	first    int // global agent range [first, last], DFS-contiguous
	last     int
	children []int // node indices, empty at leaves
	// pending counts waiting agents in the subtree; the node's request
	// line to its parent is asserted iff pending > 0.
	pending int
	// lineUp is when the line to the parent was last asserted.
	lineUp float64
}

// SimTree is an arbitration tree: it implements core.Protocol over
// the global agent identities, so bussim runs a tree exactly as it
// runs a flat protocol, and arbd serves one through the same grant
// adapter as a flat protocol. A
// single-leaf tree delegates every call to its one protocol instance
// and is bit-identical to the flat bus (the refactor's safety net,
// pinned by bussim's equivalence test).
//
// Steady-state operation is allocation-free: the descent buckets the
// sorted waiting snapshot into clusters with boundary lookups over
// the DFS-contiguous identity ranges, and all per-call scratch is
// owned by the tree.
type SimTree struct {
	name    string
	n       int
	depth   int
	nodes   []simNode
	leafOf  []int     // global agent -> leaf node index (index 0 unused)
	reqTime []float64 // global agent -> pending request's issue time
	hops    []Hop     // last grant's per-level resolutions, root first
	buf     []int     // per-level waiting-set scratch
}

// NewSimTree builds the tree spec describes. Every node's protocol
// must be registered in core.
func NewSimTree(spec *Spec) (*SimTree, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.TotalAgents()
	t := &SimTree{
		name:    spec.Name(),
		n:       n,
		depth:   spec.Depth(),
		leafOf:  make([]int, n+1),
		reqTime: make([]float64, n+1),
		hops:    make([]Hop, 0, spec.Depth()),
	}
	maxLines := 0
	if _, err := t.build(spec, -1, 0, 0, 1, &maxLines); err != nil {
		return nil, err
	}
	t.buf = make([]int, 0, maxLines)
	return t, nil
}

// build flattens the spec subtree into t.nodes, assigning global
// identities depth-first from first. It returns the node's index.
func (t *SimTree) build(s *Spec, parent, childIdx, level, first int, maxLines *int) (int, error) {
	ni := len(t.nodes)
	t.nodes = append(t.nodes, simNode{
		parent:   parent,
		childIdx: childIdx,
		level:    level,
		first:    first,
	})
	lines := s.Agents
	if !s.Leaf() {
		lines = len(s.Children)
	}
	if lines > *maxLines {
		*maxLines = lines
	}
	factory, err := core.ByName(s.Protocol)
	if err != nil {
		return 0, err
	}
	t.nodes[ni].proto = factory(lines)
	if s.Leaf() {
		t.nodes[ni].last = first + s.Agents - 1
		for g := first; g <= t.nodes[ni].last; g++ {
			t.leafOf[g] = ni
		}
		return ni, nil
	}
	next := first
	for i := range s.Children {
		ci, err := t.build(&s.Children[i], ni, i+1, level+1, next, maxLines)
		if err != nil {
			return 0, err
		}
		// The append in the recursive call may have moved t.nodes.
		t.nodes[ni].children = append(t.nodes[ni].children, ci)
		next = t.nodes[ci].last + 1
	}
	t.nodes[ni].last = next - 1
	return ni, nil
}

// Name implements core.Protocol: the Spec's collapsed display name
// ("RR1" for a single-leaf tree, "FCFS2(4xRR1:8)" for a uniform
// two-level one).
func (t *SimTree) Name() string { return t.name }

// N implements core.Protocol.
func (t *SimTree) N() int { return t.n }

// Depth returns the number of arbitration levels.
func (t *SimTree) Depth() int { return t.depth }

// OnRequest implements core.Protocol: agent g's request line goes
// high on its leaf bus, and every enclosing cluster whose line was
// idle asserts its own line one level up.
func (t *SimTree) OnRequest(g int, now float64) {
	t.checkAgent(g)
	t.reqTime[g] = now
	ni := t.leafOf[g]
	t.nodes[ni].proto.OnRequest(g-t.nodes[ni].first+1, now)
	for ni >= 0 {
		node := &t.nodes[ni]
		node.pending++
		if node.pending == 1 && node.parent >= 0 {
			t.nodes[node.parent].proto.OnRequest(node.childIdx, now)
			node.lineUp = now
		}
		ni = node.parent
	}
}

// OnServiceStart implements core.Protocol: the winner's request is
// consumed at every level on its path. A cluster that still has
// waiting agents re-asserts its line immediately — a fresh request at
// the parent's bus, which is what keeps FCFS counters ranking cluster
// lines by (re-)arrival order — the same re-assertion the arbd shard
// loop applies to an identity shared by several waiting clients.
func (t *SimTree) OnServiceStart(g int, now float64) {
	t.checkAgent(g)
	ni := t.leafOf[g]
	t.nodes[ni].proto.OnServiceStart(g-t.nodes[ni].first+1, now)
	for ni >= 0 {
		node := &t.nodes[ni]
		node.pending--
		if node.parent >= 0 {
			parent := t.nodes[node.parent].proto
			parent.OnServiceStart(node.childIdx, now)
			if node.pending > 0 {
				parent.OnRequest(node.childIdx, now)
				node.lineUp = now
			}
		}
		ni = node.parent
	}
}

// Arbitrate implements core.Protocol: the root arbitrates among the
// cluster lines, the winning cluster arbitrates among its own, down
// to the winning agent — one top-down settle per §2.1's composite
// arbitration number, all levels within the caller's single
// arbitration delay. A repass at any level (RR3's empty pass) aborts
// the settle and reports Repass; the caller charges a fresh
// arbitration delay and re-arbitrates the whole tree.
func (t *SimTree) Arbitrate(waiting []int) core.Outcome {
	if len(waiting) == 0 {
		panic("topo: Arbitrate with no waiting agents")
	}
	t.hops = t.hops[:0]
	cur := 0
	for {
		node := &t.nodes[cur]
		if len(node.children) == 0 {
			// Leaf: translate the remaining global identities to the
			// local bus (1-based within the cluster).
			local := t.buf[:0]
			for _, g := range waiting {
				local = append(local, g-node.first+1)
			}
			t.buf = local[:0]
			out := node.proto.Arbitrate(local)
			if out.Repass {
				return core.Outcome{Repass: true}
			}
			w := out.Winner + node.first - 1
			t.hops = append(t.hops, Hop{Level: node.level, LineUp: t.reqTime[w]})
			return core.Outcome{Winner: w}
		}
		// Internal: a child competes iff some of its agents are in the
		// snapshot; child ranges are contiguous and ascending, so the
		// competitor set is a boundary scan over the sorted snapshot.
		lines := t.buf[:0]
		i := 0
		for _, ci := range node.children {
			child := &t.nodes[ci]
			for i < len(waiting) && waiting[i] < child.first {
				i++
			}
			if i < len(waiting) && waiting[i] <= child.last {
				lines = append(lines, child.childIdx)
			}
		}
		t.buf = lines[:0]
		out := node.proto.Arbitrate(lines)
		if out.Repass {
			return core.Outcome{Repass: true}
		}
		win := node.children[out.Winner-1]
		child := &t.nodes[win]
		t.hops = append(t.hops, Hop{Level: node.level, LineUp: child.lineUp})
		lo := sort.SearchInts(waiting, child.first)
		hi := lo
		for hi < len(waiting) && waiting[hi] <= child.last {
			hi++
		}
		waiting = waiting[lo:hi]
		cur = win
	}
}

// LastHops returns the per-level resolutions of the most recent
// successful Arbitrate, root first. The slice is reused by the next
// call.
func (t *SimTree) LastHops() []Hop { return t.hops }

// Reset implements core.Protocol.
func (t *SimTree) Reset() {
	for i := range t.nodes {
		t.nodes[i].proto.Reset()
		t.nodes[i].pending = 0
		t.nodes[i].lineUp = 0
	}
	for i := range t.reqTime {
		t.reqTime[i] = 0
	}
	t.hops = t.hops[:0]
}

func (t *SimTree) checkAgent(g int) {
	if g < 1 || g > t.n {
		panic(fmt.Sprintf("topo: agent %d out of range 1..%d", g, t.n))
	}
}
