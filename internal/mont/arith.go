package mont

import (
	"math/big"
	"math/bits"
)

// The portable CIOS loops: the reference the amd64 kernels are checked
// against and the path on CPUs without ADX/BMI2 or off amd64. Each takes the
// modulus m (k = len(m) limbs) and n0 = -m⁻¹ mod 2^W.

// addMulVVWGo is the portable limb row: z += x·y with carry propagation,
// returning the final carry. len(x) must be ≥ len(z).
func addMulVVWGo(z, x []big.Word, y big.Word) big.Word {
	yy := uint(y)
	var carry uint
	for i := range z {
		hi, lo := bits.Mul(uint(x[i]), yy)
		lo, c := bits.Add(lo, carry, 0)
		hi += c
		s, c2 := bits.Add(uint(z[i]), lo, 0)
		z[i] = big.Word(s)
		carry = hi + c2
	}
	return big.Word(carry)
}

// mulREDCGo computes z = x·y·R⁻¹ mod m: k rows, each adding x[i]·y and then
// m·((T[i]·n0) mod 2^W) into a sliding window of the accumulator so the low
// limb cancels, followed by one conditional subtraction.
func mulREDCGo(z, x, y, m []big.Word, n0 big.Word) {
	var tb [2*MaxLimbs + 1]big.Word
	k := len(m)
	T := tb[: 2*k+1 : 2*k+1]
	for i := 0; i < k; i++ {
		c1 := addMulVVWGo(T[i:i+k], y, x[i])
		mm := T[i] * n0
		c2 := addMulVVWGo(T[i:i+k], m, mm)
		// Both row carries land on T[i+k]; the carry out of that add lands on
		// T[i+k+1], which no earlier row has written (row j touches only
		// T[j..j+k+1]), so the plain add-in cannot overflow.
		s, cc := bits.Add(uint(T[i+k]), uint(c1), 0)
		s2, cc2 := bits.Add(s, uint(c2), 0)
		T[i+k] = big.Word(s2)
		T[i+k+1] += big.Word(cc + cc2)
	}
	condSub(z, T, m)
}

// sqrREDCGo computes z = x²·R⁻¹ mod m (SOS squaring: cross products,
// doubling, diagonal, then k reduction rows).
func sqrREDCGo(z, x, m []big.Word, n0 big.Word) {
	var tb [2*MaxLimbs + 1]big.Word
	k := len(m)
	T := tb[: 2*k+1 : 2*k+1]
	// Cross products: T[i+j] += x[i]·x[j] over j > i. Row i's carry lands on
	// T[i+k], untouched by earlier rows (row j < i stops at T[j+k]).
	for i := 0; i < k-1; i++ {
		T[i+k] += addMulVVWGo(T[2*i+1:i+k], x[i+1:k], x[i])
	}
	// Double. x² < 2^(2kW), so the doubled cross sum fits 2k limbs and the
	// final carry out of T[2k-1] is zero.
	var carry big.Word
	for i := 0; i < 2*k; i++ {
		nc := T[i] >> (bits.UintSize - 1)
		T[i] = T[i]<<1 | carry
		carry = nc
	}
	// Diagonal: x[i]² added at T[2i], T[2i+1].
	var cc uint
	for i := 0; i < k; i++ {
		hi, lo := bits.Mul(uint(x[i]), uint(x[i]))
		s0, c1 := bits.Add(uint(T[2*i]), lo, cc)
		s1, c2 := bits.Add(uint(T[2*i+1]), hi, c1)
		T[2*i], T[2*i+1] = big.Word(s0), big.Word(s1)
		cc = c2
	}
	T[2*k] += big.Word(cc)
	// Montgomery reduction rows. Unlike mulREDCGo, T above the row window
	// already holds live squaring data, so the row carry must ripple instead
	// of a single add-in (a saturated limb would otherwise drop the carry).
	for i := 0; i < k; i++ {
		mm := T[i] * n0
		c2 := addMulVVWGo(T[i:i+k], m, mm)
		s, b := bits.Add(uint(T[i+k]), uint(c2), 0)
		T[i+k] = big.Word(s)
		for idx := i + k + 1; b != 0 && idx <= 2*k; idx++ {
			s, b = bits.Add(uint(T[idx]), 0, b)
			T[idx] = big.Word(s)
		}
	}
	condSub(z, T, m)
}

// condSub finishes a REDC: the result T[k..2k] is < 2m with top bit T[2k];
// subtract m once when the value is ≥ m. Variable time, see SECURITY.md.
func condSub(z, T, m []big.Word) {
	k := len(m)
	var b uint
	for j := 0; j < k; j++ {
		var s uint
		s, b = bits.Sub(uint(T[k+j]), uint(m[j]), b)
		z[j] = big.Word(s)
	}
	if T[2*k] == 0 && b != 0 {
		copy(z, T[k:2*k])
	}
}
