package spexnet

// DeterminationsApplied exposes, to the external test package, how many
// determinations the network's condition store has applied.
func (n *Network) DeterminationsApplied() int64 { return n.store.applied }

// SourceDegree exposes the number of destinations of the network's source
// port: the nodes the input transducer's initial activation is delivered to.
func (n *Network) SourceDegree() int { return int(n.source.hi - n.source.lo) }

// FormulaTable exposes the size of the network's unique formula table and the
// lookups that built a node or found one.
func (n *Network) FormulaTable() (size int, built, found int64) {
	built, found = n.cfg.pool.TableLookups()
	return n.cfg.pool.TableSize(), built, found
}

// FreeCandidates exposes the length of the network's candidate free list.
func (n *Network) FreeCandidates() int { return len(n.store.free) }

// LiveVars exposes the number of live condition variables.
func (n *Network) LiveVars() int { return n.cfg.pool.Live() }

// FreeContentBytes exposes the content-buffer storage the records on the
// candidate free list keep, and the cap a single record may keep.
func (n *Network) FreeContentBytes() (total, perRecord int) {
	for _, c := range n.store.free {
		total += c.content.Size()
	}
	return total, maxKeptContent
}
