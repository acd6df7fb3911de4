package mont

import (
	"bytes"
	"math/big"
	"slices"
	"testing"
)

// FuzzMontMulExp cross-checks the Montgomery kernel against math/big over
// fuzz-chosen odd moduli of 1024–4096 bits (4096 is n² of a 2048-bit key,
// the encryption-table shape): MulREDC (through ModMulBig, so both REDC
// directions are covered) against Mul+Mod, ExpWindow against Exp, and the
// dispatched MulREDC/SqrREDC against the portable loops. The exponent is
// capped at 192 bits to keep iterations fast; window extraction and the
// squaring ladder are width-independent.
func FuzzMontMulExp(f *testing.F) {
	f.Add(byte(0), []byte{3}, []byte{2}, []byte{5}, []byte{7})
	f.Add(byte(37), []byte{0xff, 0x01, 0x17}, []byte{0xfe}, []byte{0xab, 0xcd}, []byte{0x80, 0x00, 0x01})
	f.Add(byte(255), []byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{9}, []byte{10}, []byte{11})
	ones := bytes.Repeat([]byte{0xff}, 512) // all-ones 4096-bit modulus and operands
	f.Add(byte(255), ones, ones[:511], ones[:510], ones[:24])
	f.Fuzz(func(t *testing.T, widthSel byte, mb, xb, yb, eb []byte) {
		width := 1024 + int(widthSel)*3072/255 // 1024..4096 bits
		m := new(big.Int).SetBytes(mb)
		m.SetBit(m, width-1, 1) // force the width
		m.SetBit(m, 0, 1)       // force odd
		if m.BitLen() > width {
			m.Mod(m, new(big.Int).Lsh(big.NewInt(1), uint(width)))
			m.SetBit(m, width-1, 1)
			m.SetBit(m, 0, 1)
		}
		c, err := NewCtx(m)
		if err != nil {
			t.Fatalf("NewCtx on %d-bit odd modulus: %v", width, err)
		}
		x := new(big.Int).SetBytes(xb)
		x.Mod(x, m)
		y := new(big.Int).SetBytes(yb)
		y.Mod(y, m)
		e := new(big.Int).SetBytes(eb)
		if e.BitLen() > 192 {
			e.Rsh(e, uint(e.BitLen()-192))
		}

		wantMul := new(big.Int).Mul(x, y)
		wantMul.Mod(wantMul, m)
		if got := c.ModMulBig(new(big.Int), x, y); got.Cmp(wantMul) != 0 {
			t.Fatalf("ModMulBig mismatch at %d bits:\n got %x\nwant %x", width, got, wantMul)
		}

		xn, yn := c.SetBig(c.NewNat(), x), c.SetBig(c.NewNat(), y)
		got, ref := c.NewNat(), c.NewNat()
		c.MulREDC(got, xn, yn)
		mulREDCGo(ref, xn, yn, c.mod, c.n0)
		if !slices.Equal(got, ref) {
			t.Fatalf("MulREDC differs from the portable loop at %d bits", width)
		}
		c.SqrREDC(got, xn)
		sqrREDCGo(ref, xn, c.mod, c.n0)
		if !slices.Equal(got, ref) {
			t.Fatalf("SqrREDC differs from the portable loop at %d bits", width)
		}

		wantExp := new(big.Int).Exp(x, e, m)
		if got := c.ExpBig(new(big.Int), x, e); got.Cmp(wantExp) != 0 {
			t.Fatalf("ExpBig mismatch at %d bits e=%x:\n got %x\nwant %x", width, e, got, wantExp)
		}
	})
}
