package mont

import (
	"crypto/rand"
	"math/big"
	"math/bits"
	"slices"
	"testing"
)

// randOdd returns a random odd modulus of exactly the given bit length.
func randOdd(t testing.TB, bitLen int) *big.Int {
	t.Helper()
	m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bitLen)))
	if err != nil {
		t.Fatal(err)
	}
	m.SetBit(m, bitLen-1, 1)
	m.SetBit(m, 0, 1)
	return m
}

func randMod(t testing.TB, m *big.Int) *big.Int {
	t.Helper()
	x, err := rand.Int(rand.Reader, m)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// testWidths exercises word-aligned and straddling widths, including the
// single-limb edge and the production Paillier widths: n² of 1024/2048-bit
// keys (2048/4096 bits, the encryption-table shape) and p² of their halves
// (1024/2048 bits, the CRT-decrypt shape).
var testWidths = []int{64, 65, 127, 128, 129, 512, 1024, 1027, 2048, 3072, 4096}

func TestMulREDCCrossCheck(t *testing.T) { checkMulREDC(t) }

func checkMulREDC(t *testing.T) {
	for _, w := range testWidths {
		m := randOdd(t, w)
		c, err := NewCtx(m)
		if err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		for i := 0; i < 8; i++ {
			x, y := randMod(t, m), randMod(t, m)
			xm, ym, zm := c.NewNat(), c.NewNat(), c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.ToMont(ym, c.SetBig(ym, y))
			c.MulREDC(zm, xm, ym)
			c.FromMont(zm, zm)
			got := c.PutBig(new(big.Int), zm)
			want := new(big.Int).Mul(x, y)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d: MulREDC mismatch\n got %x\nwant %x", w, got, want)
			}
		}
	}
}

func TestSqrREDCCrossCheck(t *testing.T) { checkSqrREDC(t) }

func checkSqrREDC(t *testing.T) {
	for _, w := range testWidths {
		m := randOdd(t, w)
		c, err := NewCtx(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			x := randMod(t, m)
			xm := c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.SqrREDC(xm, xm)
			c.FromMont(xm, xm)
			got := c.PutBig(new(big.Int), xm)
			want := new(big.Int).Mul(x, x)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d: SqrREDC mismatch", w)
			}
		}
	}
}

// TestSqrREDCCarryRipple pins the reduction-row carry ripple: an all-ones
// modulus block drives saturated limbs where a non-rippling carry add-in
// silently drops bits (~2⁻⁶⁴ per row on random inputs, so random testing
// alone cannot be trusted to hit it).
func TestSqrREDCCarryRipple(t *testing.T) {
	for _, w := range []int{128, 512, 1024} {
		m := new(big.Int).Lsh(big.NewInt(1), uint(w))
		m.Sub(m, big.NewInt(1)) // 2^w − 1: every limb saturated
		c, err := NewCtx(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			x := randMod(t, m)
			xm := c.NewNat()
			c.ToMont(xm, c.SetBig(xm, x))
			c.SqrREDC(xm, xm)
			c.FromMont(xm, xm)
			got := c.PutBig(new(big.Int), xm)
			want := new(big.Int).Mul(x, x)
			want.Mod(want, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d iter %d: saturated-modulus square mismatch", w, i)
			}
		}
	}
}

func TestExpWindowCrossCheck(t *testing.T) { checkExpWindow(t) }

func checkExpWindow(t *testing.T) {
	for _, w := range []int{64, 129, 512, 1024, 2048, 4096} {
		m := randOdd(t, w)
		c, err := NewCtx(m)
		if err != nil {
			t.Fatal(err)
		}
		exps := []*big.Int{
			big.NewInt(0),
			big.NewInt(1),
			big.NewInt(2),
			big.NewInt(65537),
			randMod(t, m),
			new(big.Int).Sub(m, big.NewInt(1)),
		}
		x := randMod(t, m)
		for _, e := range exps {
			got := c.ExpBig(new(big.Int), x, e)
			want := new(big.Int).Exp(x, e, m)
			if got.Cmp(want) != 0 {
				t.Fatalf("width %d e=%x: ExpWindow mismatch", w, e)
			}
		}
	}
}

func TestModMulBigAndAliasing(t *testing.T) {
	m := randOdd(t, 1024)
	c, err := NewCtx(m)
	if err != nil {
		t.Fatal(err)
	}
	x, y := randMod(t, m), randMod(t, m)
	want := new(big.Int).Mul(x, y)
	want.Mod(want, m)
	if got := c.ModMulBig(new(big.Int), x, y); got.Cmp(want) != 0 {
		t.Fatal("ModMulBig mismatch")
	}
	// z aliasing x, and a negative operand through the cold reduction path.
	z := new(big.Int).Set(x)
	if c.ModMulBig(z, z, y); z.Cmp(want) != 0 {
		t.Fatal("ModMulBig aliased mismatch")
	}
	neg := new(big.Int).Sub(x, m) // ≡ x mod m, negative
	if got := c.ModMulBig(new(big.Int), neg, y); got.Cmp(want) != 0 {
		t.Fatal("ModMulBig negative-operand mismatch")
	}
}

func TestRPow(t *testing.T) {
	m := randOdd(t, 512)
	c, err := NewCtx(m)
	if err != nil {
		t.Fatal(err)
	}
	R := new(big.Int).Lsh(big.NewInt(1), uint(c.K()*bits.UintSize))
	for j := 1; j <= 9; j++ {
		want := new(big.Int).Exp(R, big.NewInt(int64(j)), m)
		got := c.PutBig(new(big.Int), c.RPow(j))
		if got.Cmp(want) != 0 {
			t.Fatalf("RPow(%d) mismatch", j)
		}
	}
	// The documented fold contract: t REDC folds of plain residues leave a
	// R^(−t) deficit that one multiply against RPow(t+1) repairs.
	vals := make([]*big.Int, 5)
	want := big.NewInt(1)
	for i := range vals {
		vals[i] = randMod(t, m)
		want.Mul(want, vals[i])
		want.Mod(want, m)
	}
	acc := c.SetBig(c.NewNat(), vals[0])
	op := c.NewNat()
	for _, v := range vals[1:] {
		c.MulREDC(acc, acc, c.SetBig(op, v))
	}
	c.MulREDC(acc, acc, c.RPow(len(vals)))
	if got := c.PutBig(new(big.Int), acc); got.Cmp(want) != 0 {
		t.Fatal("deficit-repair fold mismatch")
	}
}

func TestNewCtxRejects(t *testing.T) {
	for _, m := range []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-7),
		big.NewInt(10), // even
		new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), (MaxLimbs+1)*64), big.NewInt(1)),
	} {
		if _, err := NewCtx(m); err == nil {
			t.Fatalf("NewCtx(%v) accepted an invalid modulus", m)
		}
	}
}

func TestCtxForCache(t *testing.T) {
	m := randOdd(t, 256)
	a, b := CtxFor(m), CtxFor(m)
	if a == nil || a != b {
		t.Fatal("CtxFor did not return the shared context for the same pointer")
	}
	even := big.NewInt(8)
	if CtxFor(even) != nil || CtxFor(even) != nil {
		t.Fatal("CtxFor accepted an even modulus")
	}
}

// TestAllocsSteadyState is the allocation-count regression gate: MulREDC,
// SqrREDC and ExpWindow must run the steady state entirely on the stack, in
// every ExpWindow table class (≤32, ≤64 and ≤MaxLimbs limbs).
func TestAllocsSteadyState(t *testing.T) {
	for _, w := range []int{2048, 4096, 8000} {
		m := randOdd(t, w)
		c, err := NewCtx(m)
		if err != nil {
			t.Fatal(err)
		}
		x, y, z := c.NewNat(), c.NewNat(), c.NewNat()
		c.ToMont(x, c.SetBig(x, randMod(t, m)))
		c.ToMont(y, c.SetBig(y, randMod(t, m)))
		e := randMod(t, new(big.Int).Lsh(big.NewInt(1), 256))
		if n := testing.AllocsPerRun(100, func() { c.MulREDC(z, x, y) }); n != 0 {
			t.Fatalf("width %d: MulREDC allocates %.1f objects per op", w, n)
		}
		if n := testing.AllocsPerRun(100, func() { c.SqrREDC(z, x) }); n != 0 {
			t.Fatalf("width %d: SqrREDC allocates %.1f objects per op", w, n)
		}
		if n := testing.AllocsPerRun(20, func() { c.ExpWindow(z, x, e) }); n != 0 {
			t.Fatalf("width %d: ExpWindow allocates %.1f objects per op", w, n)
		}
	}
}

// TestPortableVsAsm reruns the MulREDC/SqrREDC/ExpWindow cross-checks and
// the carry stress on the portable loops. On amd64 with ADX every other test
// runs the assembly kernels; without this one the fallback would go untested
// on such machines.
func TestPortableVsAsm(t *testing.T) {
	saved := hasADX
	hasADX = false
	defer func() { hasADX = saved }()
	checkMulREDC(t)
	checkSqrREDC(t)
	checkExpWindow(t)
	checkCarryStress(t)
}

// TestREDCCarryStress drives the fused kernels through saturated limbs: the
// all-ones modulus 2^w − 1 with operands m−1 and m−2 makes nearly every
// product word and accumulator add carry. The limb counts cover the 8-limb
// block path (32, 64), the single-limb tail (17, 33, 63, 65) and both. Each
// result is checked against math/big and against the portable loops.
func TestREDCCarryStress(t *testing.T) { checkCarryStress(t) }

func checkCarryStress(t *testing.T) {
	for _, limbs := range []int{1, 17, 32, 33, 63, 64, 65} {
		w := limbs * bits.UintSize
		m := new(big.Int).Lsh(big.NewInt(1), uint(w))
		m.Sub(m, big.NewInt(1)) // every limb saturated
		c, err := NewCtx(m)
		if err != nil {
			t.Fatal(err)
		}
		// R = 2^w ≡ 1 (mod m), so a REDC is a plain modular product here.
		// The last operand (low limb 2, every other limb 2^W − 2) makes a
		// squaring's reduction-row carry and the previous row's deferred
		// overflow land on the same saturated word.
		crafted := c.NewNat()
		crafted[0] = 2
		for i := 1; i < limbs; i++ {
			crafted[i] = ^big.Word(0) - 1
		}
		ops := []*big.Int{
			new(big.Int).Sub(m, big.NewInt(1)),
			new(big.Int).Sub(m, big.NewInt(2)),
			big.NewInt(1),
			randMod(t, m),
			new(big.Int).Mod(c.PutBig(new(big.Int), crafted), m),
		}
		for _, a := range ops {
			an := c.SetBig(c.NewNat(), a)
			for _, b := range ops {
				bn := c.SetBig(c.NewNat(), b)
				want := new(big.Int).Mul(a, b)
				want.Mod(want, m)
				got, ref := c.NewNat(), c.NewNat()
				c.MulREDC(got, an, bn)
				mulREDCGo(ref, an, bn, c.mod, c.n0)
				if g := c.PutBig(new(big.Int), got); g.Cmp(want) != 0 {
					t.Fatalf("%d limbs: MulREDC(%x, %x) mismatch", limbs, a, b)
				}
				if !slices.Equal(got, ref) {
					t.Fatalf("%d limbs: MulREDC differs from the portable loop", limbs)
				}
			}
			want := new(big.Int).Mul(a, a)
			want.Mod(want, m)
			got, ref := c.NewNat(), c.NewNat()
			c.SqrREDC(got, an)
			sqrREDCGo(ref, an, c.mod, c.n0)
			if g := c.PutBig(new(big.Int), got); g.Cmp(want) != 0 {
				t.Fatalf("%d limbs: SqrREDC(%x) mismatch", limbs, a)
			}
			if !slices.Equal(got, ref) {
				t.Fatalf("%d limbs: SqrREDC differs from the portable loop", limbs)
			}
		}
	}
}

// TestWindow checks the word-level digit extraction against big.Int.Bit at
// every window width the fixed-base tables allow, across word boundaries and
// past the top word.
func TestWindow(t *testing.T) {
	e := randMod(t, new(big.Int).Lsh(big.NewInt(1), 200))
	eb := e.Bits()
	for w := 1; w <= 8; w++ {
		for wi := 0; wi*w < 64*len(eb)+16; wi++ {
			want := 0
			for b := 0; b < w; b++ {
				want |= int(e.Bit(wi*w+b)) << b
			}
			if got := Window(eb, wi, w); got != want {
				t.Fatalf("w=%d wi=%d: got %d want %d", w, wi, got, want)
			}
		}
	}
}
