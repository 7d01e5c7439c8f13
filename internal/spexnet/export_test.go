package spexnet

// DeterminationsApplied exposes, to the external test package, how many
// determinations the network's condition store has applied.
func (n *Network) DeterminationsApplied() int64 { return n.store.applied }
