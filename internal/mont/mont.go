// Package mont implements fixed-width Montgomery modular arithmetic for the
// Paillier hot paths: a per-modulus context of precomputed constants
// (Ctx{mod, n0inv, rr}), a CIOS multiply-reduce (MulREDC) and squaring
// (SqrREDC) with zero steady-state heap allocation, windowed exponentiation
// over Montgomery-form operands (ExpWindow), and conversions in and out of
// Montgomery form. See DESIGN.md §12 for the representation and the
// recurrences; SECURITY.md documents why the kernel's variable-time final
// subtraction is acceptable in this threat model.
//
// Values are fixed-width little-endian limb vectors (Nat) of exactly
// Ctx.K() words. A residue x is in Montgomery form when the vector holds
// x·R mod m with R = 2^(K·W); MulREDC computes a·b·R⁻¹ mod m, so
// Montgomery-form operands chain through products with no per-step
// conversions. Plain residues can also be folded directly — each REDC then
// contributes one R⁻¹ deficit, repaired at the end by a single multiply with
// a precomputed power of R (RPow).
package mont

import (
	"errors"
	"math/big"
	"math/bits"
	"sync"
)

// MaxLimbs bounds the supported modulus width: 130 words covers n² of a
// 4096-bit Paillier key (128 limbs) with slack. The fixed bound lets every
// intermediate buffer live on the stack, which is what makes the hot path
// allocation-free.
const MaxLimbs = 130

// Nat is a fixed-width little-endian limb vector of exactly Ctx.K() words.
// Unlike big.Int it is never normalised: high zero limbs stay in place.
type Nat []big.Word

// Ctx carries the precomputed per-modulus constants. All fields are
// read-only after NewCtx, so any number of goroutines may share one Ctx;
// RPow's lazy table has its own lock.
type Ctx struct {
	k   int      // limb count
	mod Nat      // the modulus m
	n0  big.Word // -m⁻¹ mod 2^W (the CIOS per-row quotient factor)
	rr  Nat      // R² mod m (Montgomery conversion factor)
	one Nat      // R mod m (the Montgomery form of 1)
	m   *big.Int // the modulus as a big.Int (read-only)

	rpowMu sync.Mutex
	rpows  []Nat // rpows[j] = R^(j+1) mod m, plain residues, grown on demand
}

// NewCtx precomputes a Montgomery context for the odd modulus m.
func NewCtx(m *big.Int) (*Ctx, error) {
	if m == nil || m.Sign() <= 0 || m.Bit(0) == 0 {
		return nil, errors.New("mont: modulus must be positive and odd")
	}
	k := (m.BitLen() + bits.UintSize - 1) / bits.UintSize
	if k > MaxLimbs {
		return nil, errors.New("mont: modulus exceeds MaxLimbs")
	}
	c := &Ctx{k: k, m: m, mod: make(Nat, k)}
	copy(c.mod, m.Bits())
	// n0 = -m⁻¹ mod 2^W by Newton iteration: each step doubles the number of
	// correct low bits, six steps cover 64-bit words from the 5-bit seed m₀.
	m0 := uint(c.mod[0])
	inv := m0
	for i := 0; i < 6; i++ {
		inv *= 2 - m0*inv
	}
	c.n0 = big.Word(-inv)
	rr := new(big.Int).Lsh(big.NewInt(1), uint(2*k*bits.UintSize))
	rr.Mod(rr, m)
	c.rr = make(Nat, k)
	copy(c.rr, rr.Bits())
	one := new(big.Int).Lsh(big.NewInt(1), uint(k*bits.UintSize))
	one.Mod(one, m)
	c.one = make(Nat, k)
	copy(c.one, one.Bits())
	return c, nil
}

// ctxCache maps *big.Int → *Ctx by pointer identity. Moduli in this codebase
// (n², p², q²) are immutable once a key is built, so the pointer is a stable
// identity; the cache pins both the Ctx and its modulus for the process
// lifetime, a few KB per key.
var ctxCache sync.Map

// CtxFor returns a shared context for m, keyed by pointer identity, or nil
// when m admits none (even, non-positive, or wider than MaxLimbs). Callers
// treat nil as "fall back to math/big".
func CtxFor(m *big.Int) *Ctx {
	if v, ok := ctxCache.Load(m); ok {
		c, _ := v.(*Ctx)
		return c
	}
	c, err := NewCtx(m)
	if err != nil {
		c = nil // cache the failure as a typed nil
	}
	ctxCache.Store(m, c)
	return c
}

// K returns the context's limb count; every Nat passed to this context must
// have exactly K limbs.
func (c *Ctx) K() int { return c.k }

// Mod returns the modulus (read-only).
func (c *Ctx) Mod() *big.Int { return c.m }

// One returns R mod m, the Montgomery form of 1. The returned Nat is shared
// and must not be written.
func (c *Ctx) One() Nat { return c.one }

// NewNat allocates a zero Nat of the context's width.
func (c *Ctx) NewNat() Nat { return make(Nat, c.k) }

// SetBig loads x into z as a fixed-width residue and returns z. Values
// outside [0, m) take a cold reduction path that allocates; hot-path callers
// pass reduced values.
func (c *Ctx) SetBig(z Nat, x *big.Int) Nat {
	if x.Sign() < 0 || x.Cmp(c.m) >= 0 {
		x = new(big.Int).Mod(x, c.m)
	}
	w := x.Bits()
	copy(z, w)
	for i := len(w); i < c.k; i++ {
		z[i] = 0
	}
	return z
}

// PutBig stores the plain residue x into z, reusing z's limb storage when it
// has capacity (zero allocations steady-state), and returns z.
func (c *Ctx) PutBig(z *big.Int, x Nat) *big.Int {
	return z.SetBits(append(z.Bits()[:0], x...))
}

// ToMont converts the plain residue x to Montgomery form in z (z = x·R mod
// m). z may alias x.
func (c *Ctx) ToMont(z, x Nat) { c.MulREDC(z, x, c.rr) }

// FromMont converts the Montgomery-form x back to a plain residue in z
// (z = x·R⁻¹ mod m). z may alias x.
func (c *Ctx) FromMont(z, x Nat) {
	var ob [MaxLimbs]big.Word
	ob[0] = 1
	c.MulREDC(z, x, ob[:c.k])
}

// MulREDC computes z = x·y·R⁻¹ mod m by CIOS: k rows, each adding x[i]·y
// and then m·((T[i]·n0) mod 2^W) into a sliding window of the accumulator
// so the low limb cancels, followed by one conditional subtraction. z, x and
// y must all be k limbs; z may alias x and/or y. On amd64 with ADX the whole
// loop is one assembly routine (arith_amd64.s); elsewhere the portable loop
// in arith.go runs. Zero heap allocations per call.
func (c *Ctx) MulREDC(z, x, y Nat) {
	k := c.k
	_, _, _ = z[k-1], x[k-1], y[k-1]
	if hasADX {
		mulREDCAsm(z, x, y, c.mod, c.n0)
		return
	}
	mulREDCGo(z, x, y, c.mod, c.n0)
}

// SqrREDC computes z = x²·R⁻¹ mod m (SOS squaring: cross products, doubling,
// diagonal, then k reduction rows). One squaring costs roughly ¾ of a
// MulREDC; exponentiation is squaring-dominated, so the saving compounds.
// z may alias x.
func (c *Ctx) SqrREDC(z, x Nat) {
	k := c.k
	_, _ = z[k-1], x[k-1]
	if hasADX {
		sqrREDCAsm(z, x, c.mod, c.n0)
		return
	}
	sqrREDCGo(z, x, c.mod, c.n0)
}

// RPow returns R^j mod m (j ≥ 1) as a plain residue, growing a lazily built
// shared table. Folding t plain residues through t MulREDC calls leaves a
// R^(−t) deficit; one final MulREDC against RPow(t+1) repairs it. The
// returned Nat is shared and must not be written.
func (c *Ctx) RPow(j int) Nat {
	c.rpowMu.Lock()
	defer c.rpowMu.Unlock()
	for len(c.rpows) < j {
		next := make(Nat, c.k)
		if len(c.rpows) == 0 {
			copy(next, c.one) // R¹
		} else {
			c.MulREDC(next, c.rpows[len(c.rpows)-1], c.rr)
		}
		c.rpows = append(c.rpows, next)
	}
	return c.rpows[j-1]
}

// ModMulBig sets z = x·y mod m on plain big.Int residues through two REDC
// passes (one to multiply, one to strip the R⁻¹), reusing z's storage.
// Slightly faster than big.Int Mul+Mod and allocation-free steady-state.
// z may alias x or y.
func (c *Ctx) ModMulBig(z, x, y *big.Int) *big.Int {
	var xb, yb, t [MaxLimbs]big.Word
	k := c.k
	xn := c.SetBig(xb[:k], x)
	yn := c.SetBig(yb[:k], y)
	c.MulREDC(t[:k], xn, yn)
	c.MulREDC(xn, t[:k], c.rr)
	return c.PutBig(z, xn)
}
