package instrument

// RecomputeFingerprint hashes p's identity afresh, bypassing the memo
// Fingerprint returns, for the external memo tests.
func RecomputeFingerprint(p *Plan) string { return p.computeFingerprint() }
