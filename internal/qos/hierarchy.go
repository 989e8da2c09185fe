package qos

import (
	"math"
	"sort"
)

// Contract hierarchies are the client preferences of the paper's outlook
// ("representing Quality of Service preferences by hierarchies of
// contracts", ref [5]): a tree whose leaves are proposals with a utility.
// A Best node orders its feasible children by achieved utility (the
// client ranks); a Fallback node keeps them in the order given. Planned
// against the server's offers, the tree yields its candidates in
// preference order: Stub.NegotiatePlan binds the first one the server
// admits, and the candidates after it are the Degrader's ladder.

type nodeKind int

const (
	leafNode nodeKind = iota + 1
	bestNode
	fallbackNode
)

// Node is one node of a contract hierarchy, built with NewLeaf, NewBest
// and NewFallback.
type Node struct {
	kind     nodeKind
	label    string
	proposal *Proposal
	utility  float64
	children []*Node
}

// NewLeaf builds a leaf proposing p. utility is how much the client
// values the contract when granted exactly as desired.
func NewLeaf(label string, utility float64, p *Proposal) *Node {
	return &Node{kind: leafNode, label: label, utility: utility, proposal: p}
}

// NewBest builds a node whose feasible children are tried in order of
// achieved utility.
func NewBest(label string, children ...*Node) *Node {
	return &Node{kind: bestNode, label: label, children: children}
}

// NewFallback builds a node whose feasible children are tried in the
// order given.
func NewFallback(label string, children ...*Node) *Node {
	return &Node{kind: fallbackNode, label: label, children: children}
}

// candidate is one planned contract: a feasible leaf, the contract its
// proposal resolves to against the offer, and the utility achieved.
type candidate struct {
	label    string
	proposal *Proposal
	utility  float64
	contract *Contract
}

// plan evaluates the hierarchy against the offers (by characteristic
// name) and returns its candidates in preference order. An empty plan
// means no leaf is feasible.
func (n *Node) plan(offers map[string]*Offer) []candidate {
	if n.kind == leafNode {
		if n.proposal == nil {
			return nil
		}
		offer, ok := offers[n.proposal.Characteristic]
		if !ok {
			return nil
		}
		contract, err := resolve(n.proposal, offer)
		if err != nil {
			return nil
		}
		return []candidate{{
			label:    n.label,
			proposal: n.proposal,
			utility:  n.utility * satisfaction(n.proposal, contract, offer),
			contract: contract,
		}}
	}
	var all []candidate
	for _, child := range n.children {
		all = append(all, child.plan(offers)...)
	}
	if n.kind == bestNode {
		sort.SliceStable(all, func(i, j int) bool { return all[i].utility > all[j].utility })
	}
	return all
}

// satisfaction scores how closely a resolved contract matches the
// proposal's desires in [0, 1]: each weighted numeric parameter
// contributes 1 when granted exactly, linearly less as the grant deviates
// relative to the offered range; unweighted parameters count fully.
func satisfaction(p *Proposal, c *Contract, o *Offer) float64 {
	var weightSum, score float64
	for _, pp := range p.Params {
		w := pp.Weight
		if w <= 0 {
			continue
		}
		weightSum += w
		granted := c.Value(pp.Name)
		if pp.Desired.Kind != KindNumber || granted.Kind != KindNumber {
			if granted.Equal(pp.Desired) {
				score += w
			}
			continue
		}
		po, ok := o.param(pp.Name)
		span := po.Max - po.Min
		if !ok || span <= 0 {
			if granted.Num == pp.Desired.Num {
				score += w
			}
			continue
		}
		score += w * (1 - math.Min(math.Abs(granted.Num-pp.Desired.Num)/span, 1))
	}
	if weightSum == 0 {
		return 1
	}
	return score / weightSum
}
