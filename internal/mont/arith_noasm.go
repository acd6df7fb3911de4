//go:build !amd64

package mont

import "math/big"

// hasADX is false off amd64: the portable loops run everywhere.
var hasADX = false

// Portable twins of the amd64 entry points, so the dispatch in mont.go
// compiles on every GOARCH.

func mulREDCAsm(z, x, y, m []big.Word, n0 big.Word) { mulREDCGo(z, x, y, m, n0) }

func sqrREDCAsm(z, x, m []big.Word, n0 big.Word) { sqrREDCGo(z, x, m, n0) }
