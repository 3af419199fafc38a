package dist

import (
	"sort"

	"maxminlp/internal/hypergraph"
	"maxminlp/internal/mmlp"
)

// incidence is one coefficient of the agent owning a record together with
// the full support of the row it belongs to. Support identities are
// radius-1 information in the model of Section 1.5: an agent knows with
// whom it competes on each of its resources and with whom it collaborates
// for each of its parties.
type incidence struct {
	id      int
	coeff   float64
	members []int // full support, ascending agent order; shared, read-only
}

// agentRecord is the read-only ROM of one agent — everything the agent
// knows before any communication. Records are immutable once built and
// are the unit of payload: protocols exchange whole records, and Trace
// counts records delivered.
type agentRecord struct {
	agent     int
	neighbors []int       // neighbours in H, ascending; shared with the Graph
	resources []incidence // incidences for Iv, ascending resource id
	parties   []incidence // incidences for Kv, ascending party id
	resIDs    []int       // Iv, ascending
	parIDs    []int       // Kv, ascending
}

// buildRecords extracts one ROM per agent from the instance and its
// communication hypergraph. Support slices are built once per row and
// shared between the records that reference them.
func buildRecords(in *mmlp.Instance, g *hypergraph.Graph) []*agentRecord {
	resMembers := make([][]int, in.NumResources())
	for i := range resMembers {
		resMembers[i] = rowAgents(in.Resource(i))
	}
	parMembers := make([][]int, in.NumParties())
	for k := range parMembers {
		parMembers[k] = rowAgents(in.Party(k))
	}
	recs := make([]*agentRecord, in.NumAgents())
	for v := range recs {
		rec := &agentRecord{agent: v, neighbors: g.Neighbors(v)}
		for _, i := range in.AgentResources(v) {
			rec.resources = append(rec.resources, incidence{id: i, coeff: in.A(i, v), members: resMembers[i]})
			rec.resIDs = append(rec.resIDs, i)
		}
		for _, k := range in.AgentParties(v) {
			rec.parties = append(rec.parties, incidence{id: k, coeff: in.C(k, v), members: parMembers[k]})
			rec.parIDs = append(rec.parIDs, k)
		}
		recs[v] = rec
	}
	return recs
}

func rowAgents(row []mmlp.Entry) []int {
	out := make([]int, len(row))
	for j, e := range row {
		out[j] = e.Agent
	}
	return out
}

// knowledge is the soft state of one node: the records it currently
// holds, keyed by agent. Every derived quantity — balls, local LPs,
// output values — is recomputed from it deterministically, so two nodes
// with equal knowledge produce bit-identical outputs no matter which
// engine delivered the records.
type knowledge struct {
	self int
	recs map[int]*agentRecord
}

func newKnowledge(rom *agentRecord) *knowledge {
	return &knowledge{self: rom.agent, recs: map[int]*agentRecord{rom.agent: rom}}
}

// ball returns B_H(v, r) restricted to the agents the node holds records
// for, sorted ascending. Once the node has gathered every record within
// distance r of v — always the case after fault-free flooding for the
// protocol horizon — this is exactly hypergraph.Graph.Ball: the same BFS
// over the same sorted neighbour lists.
func (k *knowledge) ball(v, r int) []int {
	depth := map[int]int{v: 0}
	queue := []int{v}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		d := depth[u]
		if d == r {
			continue
		}
		rec := k.recs[u]
		if rec == nil {
			continue // record lost mid-recovery; cannot expand
		}
		for _, w := range rec.neighbors {
			if _, ok := depth[w]; ok {
				continue
			}
			if k.recs[w] == nil {
				continue // only agents with known records join the ball
			}
			depth[w] = d + 1
			queue = append(queue, w)
		}
	}
	out := make([]int, 0, len(depth))
	for u := range depth {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// ballView implements core.InstanceView over gathered records, restricted
// to one ball. Rows hold exactly the entries of ball members — the
// partial-row contract of core.InstanceView — assembled in ascending
// agent order so they match the sorted rows of the full instance
// entry-for-entry.
type ballView struct {
	recs       map[int]*agentRecord
	resRows    map[int][]mmlp.Entry
	parRows    map[int][]mmlp.Entry
	parMembers map[int][]int
}

// view assembles the ballView for a ball of agents with known records.
func (k *knowledge) view(ball []int) *ballView {
	bv := &ballView{
		recs:       k.recs,
		resRows:    make(map[int][]mmlp.Entry),
		parRows:    make(map[int][]mmlp.Entry),
		parMembers: make(map[int][]int),
	}
	for _, v := range ball {
		rec := k.recs[v]
		for _, inc := range rec.resources {
			bv.resRows[inc.id] = append(bv.resRows[inc.id], mmlp.Entry{Agent: v, Coeff: inc.coeff})
		}
		for _, inc := range rec.parties {
			bv.parRows[inc.id] = append(bv.parRows[inc.id], mmlp.Entry{Agent: v, Coeff: inc.coeff})
			bv.parMembers[inc.id] = inc.members
		}
	}
	return bv
}

// AgentResources returns Iv of a ball member.
func (bv *ballView) AgentResources(v int) []int { return bv.recs[v].resIDs }

// AgentParties returns Kv of a ball member.
func (bv *ballView) AgentParties(v int) []int { return bv.recs[v].parIDs }

// ResourceRow returns the entries of resource i known inside the ball.
func (bv *ballView) ResourceRow(i int) []mmlp.Entry { return bv.resRows[i] }

// PartyRow returns the entries of party k known inside the ball.
func (bv *ballView) PartyRow(k int) []mmlp.Entry { return bv.parRows[k] }

// PartyMembers returns the full support Vk, learned from any member's
// record.
func (bv *ballView) PartyMembers(k int) []int { return bv.parMembers[k] }
