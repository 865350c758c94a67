package online

// Live returns how many of the run's packets are out of its pool: 0
// once every accepted packet was transmitted or pushed out.
func (g *Algo) Live() int64 { return g.pool.Live() }
