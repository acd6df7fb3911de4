//go:build amd64

#include "textflag.h"

// Fused CIOS Montgomery multiply and square on MULX/ADCX/ADOX.
//
// Every limb row runs two carry chains at once: ADCX carries the running
// high word of the products (CF), ADOX adds the accumulator word back in
// (OF). Both chains stay live across the whole row, so the row's loop control
// must leave CF and OF alone: pointers and counters advance with LEAQ and the
// loop exits on JCXZQ (DECQ would clobber OF). The flags fold into the row
// carry once, at the end of the row, not once per unrolled block.
//
// The accumulator T (2k+1 words) lives in the routine's own frame, above two
// count slots; only its first 2k+1 words are zeroed per call.

#define TBLK 0   // full 8-limb blocks per row
#define TTL 8    // leftover limbs per row (< 8)
#define TOFF 16  // T[0] (frame offset)

// LIMB adds DX·SI[off] into DI[off]; cin holds the previous limb's high word
// and hi receives this limb's.
#define LIMB(off, lo, hi, cin) \
	MULXQ off(SI), lo, hi; \
	ADCXQ cin, lo;         \
	ADOXQ off(DI), lo;     \
	MOVQ  lo, off(DI)

// ROW runs DI[0..n) += DX·SI[0..n) for n = 8·TBLK(SP) + TTL(SP) limbs, with
// the carry word in R11. On entry CF = OF = 0 and R11 = 0; on exit DI and SI
// point past the row and the row's carry is R11 + CF + OF.
#define ROW(blk, tl, one, done) \
	MOVQ  TBLK(SP), CX;          \
	TESTQ CX, CX;                \
	JZ    tl;                    \
blk:                             \
	LIMB(0, R8, R9, R11);        \
	LIMB(8, R10, R11, R9);       \
	LIMB(16, R8, R9, R11);       \
	LIMB(24, R10, R11, R9);      \
	LIMB(32, R8, R9, R11);       \
	LIMB(40, R10, R11, R9);      \
	LIMB(48, R8, R9, R11);       \
	LIMB(56, R10, R11, R9);      \
	LEAQ  64(SI), SI;            \
	LEAQ  64(DI), DI;            \
	LEAQ  -1(CX), CX;            \
	JCXZQ tl;                    \
	JMP   blk;                   \
tl:                              \
	MOVQ  TTL(SP), CX;           \
	JCXZQ done;                  \
one:                             \
	LIMB(0, R8, R9, R11);        \
	MOVQ  R9, R11;               \
	LEAQ  8(SI), SI;             \
	LEAQ  8(DI), DI;             \
	LEAQ  -1(CX), CX;            \
	JCXZQ done;                  \
	JMP   one;                   \
done:                            \
	MOVL  $0, AX;                \
	ADCXQ AX, R11;               \
	ADOXQ AX, R11

// SPLITK stores k's block and tail counts in the frame slots.
#define SPLITK(k) \
	MOVQ k, AX;          \
	SHRQ $3, AX;         \
	MOVQ AX, TBLK(SP);   \
	MOVQ k, AX;          \
	ANDQ $7, AX;         \
	MOVQ AX, TTL(SP)

// ZEROT clears T[0..2k] for k in CX.
#define ZEROT \
	LEAQ TOFF(SP), DI;       \
	LEAQ 1(CX)(CX*1), CX;    \
	XORL AX, AX;             \
	REP; STOSQ

// CONDSUB finishes a REDC with the result in T[k..2k] (R14 = &T[k], R12 =
// &z[0], SI = &m[0], R13 = k): z = T − m when T ≥ m, else T. Variable time
// (see SECURITY.md).
#define CONDSUB \
	MOVQ  R12, DI;             \
	MOVQ  R13, CX;             \
	MOVQ  R14, BX;             \
	CLC;                       \
subl:                          \
	MOVQ  0(BX), R8;           \
	SBBQ  0(SI), R8;           \
	MOVQ  R8, 0(DI);           \
	LEAQ  8(BX), BX;           \
	LEAQ  8(SI), SI;           \
	LEAQ  8(DI), DI;           \
	LEAQ  -1(CX), CX;          \
	JCXZQ subdone;             \
	JMP   subl;                \
subdone:                       \
	MOVQ  0(BX), AX;           \
	SBBQ  $0, AX;              \
	JCC   out;                 \
	MOVQ  R12, DI;             \
	MOVQ  R13, CX;             \
keepl:                         \
	MOVQ  0(R14), R8;          \
	MOVQ  R8, 0(DI);           \
	ADDQ  $8, R14;             \
	ADDQ  $8, DI;              \
	DECQ  CX;                  \
	JNZ   keepl;               \
out:                           \
	RET

// func mulREDCAsm(z, x, y, m []big.Word, n0 big.Word)
//
// z = x·y·R⁻¹ mod m by CIOS over a sliding window of T: row i adds x[i]·y
// into T[i..i+k), then m·(T[i]·n0) so that T[i] cancels; both row carries
// land on T[i+k] with the overflow on T[i+k+1], which no earlier row wrote.
TEXT ·mulREDCAsm(SB), 0, $2104-104
	MOVQ m_len+80(FP), CX
	SPLITK(CX)
	ZEROT
	MOVQ x_base+24(FP), BX  // &x[i]
	LEAQ TOFF(SP), R14      // &T[i]
	MOVQ m_len+80(FP), R13  // rows left

row:
	MOVQ 0(BX), DX          // x[i]
	MOVQ y_base+48(FP), SI
	MOVQ R14, DI
	XORL R11, R11
	ROW(ablk, atl, aone, adone)
	ADDQ R11, 0(DI)         // T[i+k] += carry
	ADCQ $0, 8(DI)          // T[i+k+1] += overflow (it was 0)

	MOVQ 0(R14), DX
	IMULQ n0+96(FP), DX     // T[i]·n0 mod 2^64
	MOVQ m_base+72(FP), SI
	MOVQ R14, DI
	XORL R11, R11
	ROW(rblk, rtl, rone, rdone)
	ADDQ R11, 0(DI)
	ADCQ $0, 8(DI)

	LEAQ 8(R14), R14
	LEAQ 8(BX), BX
	DECQ R13
	JNZ  row

	MOVQ z_base+0(FP), R12
	MOVQ m_base+72(FP), SI
	MOVQ m_len+80(FP), R13
	CONDSUB

// func sqrREDCAsm(z, x, m []big.Word, n0 big.Word)
//
// z = x²·R⁻¹ mod m: the cross products x[i]·x[j] (j > i) into T, then one
// chained pass that doubles T and adds the diagonal x[i]², then k reduction
// rows. A reduction row's carry out of T[i+k] is deferred in R15 and added
// with the next row's carry, so it never has to ripple through the live
// upper half of T.
TEXT ·sqrREDCAsm(SB), 0, $2104-80
	MOVQ m_len+56(FP), CX
	ZEROT

	// Cross products: row i adds x[i]·x[i+1..k) into T[2i+1..i+k) and stores
	// its carry to T[i+k], which no earlier row reached.
	MOVQ x_base+24(FP), BX  // &x[i]
	LEAQ (TOFF+8)(SP), R14  // &T[2i+1]
	MOVQ m_len+56(FP), R13
	DECQ R13                // row length k−1−i, also the rows left
	JZ   diag

cross:
	SPLITK(R13)
	MOVQ 0(BX), DX
	LEAQ 8(BX), SI
	MOVQ R14, DI
	XORL R11, R11
	ROW(cblk, ctl, cone, cdone)
	MOVQ R11, 0(DI)
	LEAQ 8(BX), BX
	LEAQ 16(R14), R14
	DECQ R13
	JNZ  cross

	// T = 2·T + Σ x[i]²·2^(128i): ADCX doubles each word with the bit shifted
	// out of the previous one, ADOX adds the diagonal. x² < 2^(128k), so both
	// chains end with no carry and T[2k] stays 0.
diag:
	MOVQ x_base+24(FP), SI
	LEAQ TOFF(SP), DI
	MOVQ m_len+56(FP), CX
	XORL AX, AX

dloop:
	MOVQ  0(SI), DX
	MULXQ DX, R8, R9
	MOVQ  0(DI), R10
	MOVQ  8(DI), R11
	ADCXQ R10, R10
	ADCXQ R11, R11
	ADOXQ R8, R10
	ADOXQ R9, R11
	MOVQ  R10, 0(DI)
	MOVQ  R11, 8(DI)
	LEAQ  8(SI), SI
	LEAQ  16(DI), DI
	LEAQ  -1(CX), CX
	JCXZQ reduce
	JMP   dloop

	// Reduction: row i adds m·(T[i]·n0) into T[i..i+k).
reduce:
	MOVQ m_len+56(FP), CX
	SPLITK(CX)
	LEAQ TOFF(SP), R14      // &T[i]
	MOVQ m_len+56(FP), R13
	XORL R15, R15           // deferred carry into T[i+k]

red:
	MOVQ  0(R14), DX
	IMULQ n0+72(FP), DX
	MOVQ  m_base+48(FP), SI
	MOVQ  R14, DI
	XORL  R11, R11
	ROW(rblk, rtl, rone, rdone)
	ADDQ  R15, R11          // row carry + previous row's overflow
	MOVL  $0, R15
	ADCQ  $0, R15
	ADDQ  R11, 0(DI)
	ADCQ  $0, R15           // at most one of the two adds overflows
	LEAQ  8(R14), R14
	DECQ  R13
	JNZ   red
	MOVQ  R15, 8(DI)        // T[2k]

	MOVQ z_base+0(FP), R12
	MOVQ m_base+48(FP), SI
	MOVQ m_len+56(FP), R13
	CONDSUB

// func cpuidMaxLeaf() uint32
TEXT ·cpuidMaxLeaf(SB), NOSPLIT, $0-4
	XORL AX, AX
	XORL CX, CX
	CPUID
	MOVL AX, ret+0(FP)
	RET

// func cpuid7EBX() uint32
TEXT ·cpuid7EBX(SB), NOSPLIT, $0-4
	MOVL $7, AX
	XORL CX, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET
