package paillier

import (
	"math/big"

	"vfps/internal/mont"
)

// The Montgomery kernel (internal/mont) replaces division-based big.Int
// reduction on the modular-multiplication hot paths: fixed-base table
// products (operands chained in Montgomery form across the whole windowed
// product), Garner recombination, and ciphertext accumulation
// (AddCipher/AddCipherInto/Sum). Plain modular exponentiations deliberately
// stay on big.Int.Exp, which already runs an assembly Montgomery ladder
// internally and cannot be beaten by re-entering/leaving the form per call
// (DESIGN.md §12). Every path computes the exact same residues, so
// ciphertexts, sums and selections are bit-identical with the kernel on or
// off. The kernel is always on outside tests and experiments; the math/big
// path (PublicKey.Mont < 0) is the reference it is checked against.

// useMont resolves the key's Mont knob: on unless Mont is negative.
func (pk *PublicKey) useMont() bool { return pk.Mont >= 0 }

// montN2 returns the shared Montgomery context for n², or nil when the knob
// is off (callers fall back to math/big).
func (pk *PublicKey) montN2() *mont.Ctx {
	if !pk.useMont() {
		return nil
	}
	return mont.CtxFor(pk.N2)
}

// newMontCtx builds a private context for a key-local modulus (p², q²),
// swallowing the only possible failure (modulus too wide) into nil.
func newMontCtx(m *big.Int) *mont.Ctx {
	c, err := mont.NewCtx(m)
	if err != nil {
		return nil
	}
	return c
}

// montSum folds the ciphertext product in a single fixed-width accumulator:
// one CIOS pass per ciphertext (the operands stay un-normalised limb vectors
// across the whole reduction) plus one final pass against R^(t+1) to repair
// the accumulated R^(−t) deficit, converting back to a big.Int exactly once.
// Compare the stdlib fold's full Mul+Mod per element.
func (pk *PublicKey) montSum(ctx *mont.Ctx, cs []*Ciphertext) (*Ciphertext, error) {
	k := ctx.K()
	var accBuf, opBuf [mont.MaxLimbs]big.Word
	acc := ctx.SetBig(accBuf[:k], cs[0].C)
	op := opBuf[:k]
	for _, c := range cs[1:] {
		if err := pk.validate(c); err != nil {
			return nil, err
		}
		ctx.MulREDC(acc, acc, ctx.SetBig(op, c.C))
	}
	ctx.MulREDC(acc, acc, ctx.RPow(len(cs)))
	return &Ciphertext{C: ctx.PutBig(new(big.Int), acc)}, nil
}
