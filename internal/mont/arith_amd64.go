//go:build amd64

package mont

import "math/big"

// hasADX gates the MULX/ADCX/ADOX kernels. The go toolchain's baseline
// GOAMD64 level does not guarantee ADX or BMI2, so detect at startup and
// fall back to the portable loops on older silicon.
var hasADX = func() bool {
	if cpuidMaxLeaf() < 7 {
		return false
	}
	ebx := cpuid7EBX()
	const bmi2 = 1 << 8 // MULX
	const adx = 1 << 19 // ADCX/ADOX
	return ebx&bmi2 != 0 && ebx&adx != 0
}()

// mulREDCAsm is the fused CIOS multiply: z = x·y·R⁻¹ mod m over k = len(m)
// limbs, every row and the final subtraction in one routine. z may alias x
// and/or y.
//
//go:noescape
func mulREDCAsm(z, x, y, m []big.Word, n0 big.Word)

// sqrREDCAsm is the fused square: z = x²·R⁻¹ mod m over k = len(m) limbs.
// z may alias x.
//
//go:noescape
func sqrREDCAsm(z, x, m []big.Word, n0 big.Word)

// cpuidMaxLeaf returns CPUID leaf 0 EAX (the highest supported leaf).
func cpuidMaxLeaf() uint32

// cpuid7EBX returns CPUID leaf 7 subleaf 0 EBX (structured feature flags).
func cpuid7EBX() uint32
