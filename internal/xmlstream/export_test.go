package xmlstream

import "io"

// NameCacheLen exposes the size of the scanner's private name map: with no
// Symtab attached it holds the label vocabulary and nothing else.
func (s *Scanner) NameCacheLen() int { return len(s.names) }

// SeedScanner is the reference engine (seed_test.go) as the external tests
// see it.
type SeedScanner = seedScanner

// NewSeedScanner returns the reference engine over r: the oracle the
// differential harness holds the Scanner to.
func NewSeedScanner(r io.Reader, opts ...ScannerOption) *SeedScanner {
	return newSeedScanner(r, opts...)
}
