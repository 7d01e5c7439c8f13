package xmlstream

// NameCacheLen exposes the size of the scanner's private name map: with no
// Symtab attached it holds the label vocabulary and nothing else.
func (s *Scanner) NameCacheLen() int { return len(s.names) }
