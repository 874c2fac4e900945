package plan

import (
	"fmt"
)

// This file implements the paper's Section 4.1: converting a plan
// tree to per-table "decoding embeddings" over the leaves of the
// equivalent complete binary tree, and reverting a unique tree from
// those embeddings (Figure 4).
//
// The tree is viewed as a complete binary tree of depth D (its own
// maximum leaf depth): a leaf at depth d < D stands for the whole
// 2^(D-d)-wide run of complete-tree leaf slots beneath it, all
// labeled with its table. Each table's decoding embedding is the 0/1
// indicator of its slots, padded with zeros to the requested width.
// For the paper's 4-table examples (width 8):
//
//	left-deep ((T1 ⋈ T2) ⋈ T3) ⋈ T4:
//	  T1=[1 0 0 0 0 0 0 0] T2=[0 1 0 0 0 0 0 0]
//	  T3=[0 0 1 1 0 0 0 0] T4=[0 0 0 0 1 1 1 1]
//	bushy (T1 ⋈ T2) ⋈ (T3 ⋈ T4):
//	  T1=[1 0 ...] T2=[0 1 ...] T3=[0 0 1 0 ...] T4=[0 0 0 1 ...]

// DecodingEmbeddings computes the per-table decoding embedding of the
// tree, as width-wide 0/1 vectors. Each table may appear at most once
// as a leaf. width must be at least 2^Depth.
func DecodingEmbeddings(root *Node, width int) (map[string][]float64, error) {
	d := root.Depth()
	span := 1 << d
	if span > width {
		return nil, fmt.Errorf("plan: tree depth %d needs width %d > %d", d, span, width)
	}
	out := map[string][]float64{}
	var rec func(n *Node, depth, lo int) error
	rec = func(n *Node, depth, lo int) error {
		run := 1 << (d - depth)
		if n.IsLeaf() {
			if _, dup := out[n.Table]; dup {
				return fmt.Errorf("plan: table %q appears twice", n.Table)
			}
			v := make([]float64, width)
			for i := lo; i < lo+run; i++ {
				v[i] = 1
			}
			out[n.Table] = v
			return nil
		}
		if err := rec(n.Left, depth+1, lo); err != nil {
			return err
		}
		return rec(n.Right, depth+1, lo+run/2)
	}
	if err := rec(root, 0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// TreeFromEmbeddings reverts the unique logical tree encoded by a set
// of decoding embeddings (Section 4.1's seq-to-tree direction). The
// returned tree has SeqScan leaves and HashJoin inner nodes; physical
// operators are not carried by the embeddings.
func TreeFromEmbeddings(emb map[string][]float64) (*Node, error) {
	if len(emb) == 0 {
		return nil, fmt.Errorf("plan: no embeddings")
	}
	// Label each slot; find the highest used slot to recover the
	// actual complete-tree span (a power of two).
	maxSlot := -1
	var width int
	for t, v := range emb {
		if width == 0 {
			width = len(v)
		} else if len(v) != width {
			return nil, fmt.Errorf("plan: embedding width mismatch for %q", t)
		}
		any := false
		for i, x := range v {
			if x != 0 {
				any = true
				if i > maxSlot {
					maxSlot = i
				}
			}
		}
		if !any {
			return nil, fmt.Errorf("plan: table %q has empty embedding", t)
		}
	}
	span := 1
	for span < maxSlot+1 {
		span *= 2
	}
	if span > width {
		return nil, fmt.Errorf("plan: slot %d beyond width %d", maxSlot, width)
	}
	labels := make([]string, span)
	for t, v := range emb {
		for i := 0; i < span; i++ {
			if v[i] != 0 {
				if labels[i] != "" {
					return nil, fmt.Errorf("plan: slot %d claimed by %q and %q", i, labels[i], t)
				}
				labels[i] = t
			}
		}
	}
	for i, l := range labels {
		if l == "" {
			return nil, fmt.Errorf("plan: slot %d unlabeled", i)
		}
	}
	var build func(lo, hi int) (*Node, error)
	build = func(lo, hi int) (*Node, error) {
		uniform := true
		for i := lo + 1; i < hi; i++ {
			if labels[i] != labels[lo] {
				uniform = false
				break
			}
		}
		if uniform {
			return Leaf(labels[lo], SeqScan), nil
		}
		mid := lo + (hi-lo)/2
		l, err := build(lo, mid)
		if err != nil {
			return nil, err
		}
		r, err := build(mid, hi)
		if err != nil {
			return nil, err
		}
		if !l.IsLeaf() && r.IsLeaf() {
			// A run crossing the midpoint would be inconsistent:
			// verify the right side does not continue the left label.
			if labels[mid-1] == labels[mid] {
				return nil, fmt.Errorf("plan: label run crosses subtree boundary at slot %d", mid)
			}
		}
		return NewJoin(HashJoin, l, r), nil
	}
	return build(0, span)
}
