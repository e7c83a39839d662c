package lang

// ComputeHash exposes the uncached hash computation to the external tests.
func (p *Program) ComputeHash() string { return p.computeHash() }
