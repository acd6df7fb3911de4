package mont

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// Benchmarks compare the kernel against the math/big operations it replaces
// at the production widths: n² of 1024/2048-bit keys (2048/4096 bits, the
// encryption-table shape), p² of their halves, plus the CRT-decrypt shape.
// `make bench-mont` runs these.

func benchCtx(b *testing.B, bits int) (*Ctx, *big.Int, *big.Int) {
	b.Helper()
	m, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits)))
	if err != nil {
		b.Fatal(err)
	}
	m.SetBit(m, bits-1, 1)
	m.SetBit(m, 0, 1)
	c, err := NewCtx(m)
	if err != nil {
		b.Fatal(err)
	}
	x, _ := rand.Int(rand.Reader, m)
	y, _ := rand.Int(rand.Reader, m)
	return c, x, y
}

func benchWidths(b *testing.B, f func(b *testing.B, bits int)) {
	for _, bits := range []int{1024, 2048, 3072, 4096} {
		b.Run(big.NewInt(int64(bits)).String(), func(b *testing.B) { f(b, bits) })
	}
}

func BenchmarkMulREDC(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, y := benchCtx(b, bits)
		xm, ym, z := c.NewNat(), c.NewNat(), c.NewNat()
		c.ToMont(xm, c.SetBig(xm, x))
		c.ToMont(ym, c.SetBig(ym, y))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.MulREDC(z, xm, ym)
		}
	})
}

func BenchmarkSqrREDC(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, _ := benchCtx(b, bits)
		xm, z := c.NewNat(), c.NewNat()
		c.ToMont(xm, c.SetBig(xm, x))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SqrREDC(z, xm)
		}
	})
}

func BenchmarkBigMulMod(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, y := benchCtx(b, bits)
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z.Mul(x, y)
			z.Mod(z, c.Mod())
		}
	})
}

func BenchmarkModMulBig(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, y := benchCtx(b, bits)
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ModMulBig(z, x, y)
		}
	})
}

func BenchmarkExpWindow(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, _ := benchCtx(b, bits)
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits/2)))
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.ExpBig(z, x, e)
		}
	})
}

func BenchmarkBigExp(b *testing.B) {
	benchWidths(b, func(b *testing.B, bits int) {
		c, x, _ := benchCtx(b, bits)
		e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), uint(bits/2)))
		z := new(big.Int)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			z.Exp(x, e, c.Mod())
		}
	})
}

// BenchmarkDecryptShape times one CRT-decryption half at a 2048-bit key: a
// 2048-bit modulus (p²) raised to a 1024-bit exponent (p−1), through the
// kernel's ExpWindow and through big.Int.Exp.
func BenchmarkDecryptShape(b *testing.B) {
	c, x, _ := benchCtx(b, 2048)
	e, _ := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 1024))
	e.SetBit(e, 1023, 1)
	z := new(big.Int)
	b.Run("ExpWindow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.ExpBig(z, x, e)
		}
	})
	b.Run("BigExp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			z.Exp(x, e, c.Mod())
		}
	})
}
