package mont

import (
	"math/big"
	"math/bits"
)

// expWindow is the window width of ExpWindow. Six bits balances the
// 2^5-entry odd-power table build (31 multiplies and a square) against the
// per-window multiply count at the exponent widths the Paillier paths use
// (512–2112 bits).
const expWindow = 6

// expTable is the number of table entries: the odd powers x, x³, …,
// x^(2^expWindow − 1).
const expTable = 1 << (expWindow - 1)

// ExpWindow computes z = x^e in Montgomery form: x must be in Montgomery
// form and z receives the Montgomery form of the power. e is a plain
// non-negative exponent. Left-to-right sliding windows over a stack table of
// odd powers; squarings run through SqrREDC. z may alias x. Zero heap
// allocations per call.
//
// The table is sized to one of three limb classes (≤32, ≤64, ≤MaxLimbs), so
// a half-width CRT exponentiation on a fresh goroutine does not grow its
// stack to the widest modulus's table. Each class has its own non-inlined
// frame; inlining would put all three arrays in one.
func (c *Ctx) ExpWindow(z, x Nat, e *big.Int) {
	switch {
	case c.k <= 32:
		c.expWindow32(z, x, e)
	case c.k <= 64:
		c.expWindow64(z, x, e)
	default:
		c.expWindowMax(z, x, e)
	}
}

//go:noinline
func (c *Ctx) expWindow32(z, x Nat, e *big.Int) {
	var table [expTable * 32]big.Word
	c.expWindow(z, x, e, table[:expTable*c.k])
}

//go:noinline
func (c *Ctx) expWindow64(z, x Nat, e *big.Int) {
	var table [expTable * 64]big.Word
	c.expWindow(z, x, e, table[:expTable*c.k])
}

//go:noinline
func (c *Ctx) expWindowMax(z, x Nat, e *big.Int) {
	var table [expTable * MaxLimbs]big.Word
	c.expWindow(z, x, e, table[:expTable*c.k])
}

// expWindow is ExpWindow over a caller-provided table of expTable·k words.
func (c *Ctx) expWindow(z, x Nat, e *big.Int, table []big.Word) {
	k := c.k
	if e.Sign() == 0 {
		copy(z, c.one)
		return
	}
	// table[j] = x^(2j+1), stepping by x² (held in acc until the scan starts).
	var accBuf [MaxLimbs]big.Word
	acc := accBuf[:k]
	c.SqrREDC(acc, x)
	copy(table[0:k], x)
	for j := 1; j < expTable; j++ {
		c.MulREDC(table[j*k:(j+1)*k], table[(j-1)*k:j*k], acc)
	}
	eb := e.Bits()
	bit := func(i int) uint { return uint(eb[i/bits.UintSize]>>(i%bits.UintSize)) & 1 }
	top := e.BitLen() - 1
	for i := top; i >= 0; {
		if bit(i) == 0 {
			c.SqrREDC(acc, acc)
			i--
			continue
		}
		// The window e[i..l] is the longest one of at most expWindow bits
		// that ends in a set bit, so its value d is odd.
		l := max(i-expWindow+1, 0)
		for bit(l) == 0 {
			l++
		}
		d := 0
		for j := i; j >= l; j-- {
			d = d<<1 | int(bit(j))
		}
		entry := table[(d>>1)*k : (d>>1+1)*k]
		if i == top { // the first window: nothing to square yet
			copy(acc, entry)
		} else {
			for s := l; s <= i; s++ {
				c.SqrREDC(acc, acc)
			}
			c.MulREDC(acc, acc, entry)
		}
		i = l - 1
	}
	copy(z, acc)
}

// Window extracts the wi-th w-bit digit (w ≤ W) of the little-endian word
// vector eb, straddling a word boundary when needed.
func Window(eb []big.Word, wi, w int) int {
	bitPos := wi * w
	wordIdx := bitPos / bits.UintSize
	bitIdx := bitPos % bits.UintSize
	if wordIdx >= len(eb) {
		return 0
	}
	d := uint(eb[wordIdx]) >> bitIdx
	if bitIdx+w > bits.UintSize && wordIdx+1 < len(eb) {
		d |= uint(eb[wordIdx+1]) << (bits.UintSize - bitIdx)
	}
	return int(d & (1<<w - 1))
}

// ExpBig computes z = base^e mod m on plain big.Int values through the
// Montgomery kernel: reduce, convert in, ExpWindow, convert out. z may alias
// base. The conversions cost two REDC passes total, noise next to the
// exponentiation itself.
func (c *Ctx) ExpBig(z, base, e *big.Int) *big.Int {
	var xb [MaxLimbs]big.Word
	k := c.k
	x := c.SetBig(xb[:k], base)
	c.ToMont(x, x)
	c.ExpWindow(x, x, e)
	c.FromMont(x, x)
	return c.PutBig(z, x)
}
