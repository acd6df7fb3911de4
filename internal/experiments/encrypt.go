package experiments

import (
	"context"
	"crypto/rand"
	"fmt"
	"math/big"
	"runtime"
	"time"

	"vfps"
	"vfps/internal/core"
	"vfps/internal/paillier"
	"vfps/internal/par"
	"vfps/internal/vfl"
)

// EncryptMicro reports the party-side encryption microbenchmark: the same
// N-message encryption pass run with each randomizer-production strategy,
// fully serial so the ratios isolate the arithmetic.
//
//   - Inline:      classic textbook path — uniform r, full-width r^n mod n².
//   - Windowed:    fixed-base windowing — one shared base, table lookups
//     replace every squaring (public-key holders, i.e. participants).
//   - CRT:         half-width exponentiations mod p², q² plus Garner
//     recombination (key holders only).
//   - CRTWindowed: both — half-width fixed-base tables.
//   - Pooled:      drawing prefilled randomizers, the steady-state fast path
//     (two mulmods per encryption).
//
// The Mont* fields A/B the Montgomery kernel (internal/mont) against pure
// math/big on three representative workloads with everything else fixed:
// windowed encryption and ciphertext summation are modmul-bound (the kernel's
// win — the gate asserts ≥ 1.5), CRT decryption is modexp-bound where
// big.Int.Exp already runs Montgomery internally, so the gate only asserts
// near-parity (ratio ≥ 0.9).
type EncryptMicro struct {
	N      int
	Bits   int
	Window int
	// Per-strategy wall clock for the N encryptions.
	InlineSeconds      float64
	WindowedSeconds    float64
	CRTSeconds         float64
	CRTWindowedSeconds float64
	PooledSeconds      float64
	// Speedups over InlineSeconds. WindowedSpeedup is the headline party-side
	// gain (the bench gate asserts ≥ 2 at 1024-bit keys).
	WindowedSpeedup    float64
	CRTSpeedup         float64
	CRTWindowedSpeedup float64
	PooledSpeedup      float64
	// Montgomery-kernel A/B: the same workload with the Mont knob forced off
	// (pure math/big) and on.
	MontWindowedOffSeconds float64
	MontWindowedOnSeconds  float64
	MontWindowedSpeedup    float64
	MontSumOffSeconds      float64
	MontSumOnSeconds       float64
	MontSumSpeedup         float64
	MontDecryptOffSeconds  float64
	MontDecryptOnSeconds   float64
	MontDecryptRatio       float64
}

// EncryptE2E reports one end-to-end selection under a randomizer-production
// mode. SelectedMatch asserts the contract: randomizers only blind
// ciphertexts, so every mode must select the exact participants the classic
// baseline does.
type EncryptE2E struct {
	Variant string
	// Mode is "classic" (uniform-r baseline), "windowed" (fixed-base window
	// pools), "shared" (cluster-lifetime shared PoolSet) or "mont-off"
	// (windowed with the Montgomery kernel forced off — its SelectedMatch is
	// the end-to-end proof that both arithmetic backends select identically).
	Mode          string
	Seconds       float64
	Speedup       float64
	Selected      []int
	SelectedMatch bool
}

// EncryptResult is the structured output of the encryption-path benchmark.
type EncryptResult struct {
	GOMAXPROCS  int
	Parallelism int
	Rows        int
	Queries     int
	Parties     int
	KeyBits     int
	Micro       EncryptMicro
	EndToEnd    []EncryptE2E
	Table       *Table
}

// Encrypt benchmarks the encryption hot path: every randomizer-production
// strategy against the classic inline baseline at N=256 under 1024-bit keys,
// then full BASE and SM (Fagin) selections with packing on under each pool
// mode. The selected sets must match the classic baseline exactly.
func Encrypt(ctx context.Context, opt Options) (*EncryptResult, error) {
	return encryptAt(ctx, opt, 256, 1024, 512)
}

// encryptAt is Encrypt with the microbenchmark size and key widths injectable
// so unit tests can shrink them.
func encryptAt(ctx context.Context, opt Options, vecN, vecBits, e2eBits int) (*EncryptResult, error) {
	opt = opt.withDefaults()
	res := &EncryptResult{
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: par.Degree(),
		Parties:     opt.Parties,
		KeyBits:     e2eBits,
	}
	res.Rows = opt.Rows
	if res.Rows > 200 {
		res.Rows = 200
	}
	res.Queries = opt.Queries
	if res.Queries > 8 {
		res.Queries = 8
	}

	if err := encryptMicro(ctx, &res.Micro, vecN, vecBits); err != nil {
		return nil, err
	}
	for _, variant := range []string{"base", "fagin"} {
		e2es, err := encryptE2E(ctx, opt, res, variant)
		if err != nil {
			return nil, err
		}
		res.EndToEnd = append(res.EndToEnd, e2es...)
	}

	res.Table = encryptTable(res)
	res.Table.Fprint(opt.Out)
	return res, nil
}

// encryptMicro times N serial encryptions under each randomizer strategy.
// The non-inline passes use pull-only pools (no background workers), so
// every draw computes through the strategy's source and the measurement is
// pure arithmetic, not scheduler behaviour.
func encryptMicro(ctx context.Context, m *EncryptMicro, n, bits int) error {
	m.N, m.Bits, m.Window = n, bits, paillier.DefaultWindow
	key, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return err
	}
	pk := &key.PublicKey
	ms := make([]*big.Int, n)
	for i := range ms {
		ms[i] = big.NewInt(int64(i%97) + 1)
	}

	timeIt := func(f func(m *big.Int) error) (float64, error) {
		start := time.Now()
		for i, msg := range ms {
			if i%16 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if err := f(msg); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}
	viaPool := func(o paillier.PoolOptions) (float64, error) {
		rz := paillier.NewRandomizerOpts(pk, rand.Reader, o)
		defer rz.Close()
		return timeIt(func(msg *big.Int) error {
			_, err := pk.EncryptWith(rz, msg)
			return err
		})
	}

	if m.InlineSeconds, err = timeIt(func(msg *big.Int) error {
		_, err := pk.Encrypt(rand.Reader, msg)
		return err
	}); err != nil {
		return err
	}
	if m.WindowedSeconds, err = viaPool(paillier.PoolOptions{Workers: -1}); err != nil {
		return err
	}
	if m.CRTSeconds, err = timeIt(func(msg *big.Int) error {
		_, err := key.Encrypt(rand.Reader, msg)
		return err
	}); err != nil {
		return err
	}
	if m.CRTWindowedSeconds, err = viaPool(paillier.PoolOptions{Workers: -1, Key: key}); err != nil {
		return err
	}

	// Steady state: a fully prefilled pool, every draw a hit.
	rz := paillier.NewRandomizerOpts(pk, rand.Reader, paillier.PoolOptions{Buffer: n, Workers: -1})
	defer rz.Close()
	if _, err := rz.Prefill(n); err != nil {
		return err
	}
	if m.PooledSeconds, err = timeIt(func(msg *big.Int) error {
		_, err := pk.EncryptWith(rz, msg)
		return err
	}); err != nil {
		return err
	}

	m.WindowedSpeedup = speedup(m.InlineSeconds, m.WindowedSeconds)
	m.CRTSpeedup = speedup(m.InlineSeconds, m.CRTSeconds)
	m.CRTWindowedSpeedup = speedup(m.InlineSeconds, m.CRTWindowedSeconds)
	m.PooledSpeedup = speedup(m.InlineSeconds, m.PooledSeconds)

	if err := encryptMontAB(ctx, m, key, ms); err != nil {
		return err
	}
	return nil
}

// encryptMontAB times three workloads with the Montgomery kernel forced off,
// then on, everything else identical. Pools are rebuilt per knob setting so
// each arm's fixed-base tables carry the representation under test.
func encryptMontAB(ctx context.Context, m *EncryptMicro, key *paillier.PrivateKey, ms []*big.Int) error {
	pk := &key.PublicKey
	defer func() { pk.Mont = 0 }()

	// Shared inputs: one batch of ciphertexts to fold and one to decrypt.
	// Residues are backend-independent, so both arms fold the same values.
	sumN := 64
	if sumN > len(ms)*4 {
		sumN = len(ms) * 4
	}
	cs := make([]*paillier.Ciphertext, sumN)
	for i := range cs {
		c, err := key.Encrypt(rand.Reader, big.NewInt(int64(i+1)))
		if err != nil {
			return err
		}
		cs[i] = c
	}

	loop := func(f func() error) (float64, error) {
		start := time.Now()
		for i := 0; i < len(ms); i++ {
			if i%16 == 0 {
				if err := ctx.Err(); err != nil {
					return 0, err
				}
			}
			if err := f(); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds(), nil
	}

	for _, arm := range []struct {
		knob          int
		enc, sum, dec *float64
	}{
		{-1, &m.MontWindowedOffSeconds, &m.MontSumOffSeconds, &m.MontDecryptOffSeconds},
		{1, &m.MontWindowedOnSeconds, &m.MontSumOnSeconds, &m.MontDecryptOnSeconds},
	} {
		pk.Mont = arm.knob
		rz := paillier.NewRandomizerOpts(pk, rand.Reader, paillier.PoolOptions{Workers: -1})
		var err error
		i := 0
		*arm.enc, err = loop(func() error {
			i++
			_, err := pk.EncryptWith(rz, ms[i%len(ms)])
			return err
		})
		rz.Close()
		if err != nil {
			return err
		}
		if *arm.sum, err = loop(func() error {
			_, err := pk.Sum(cs...)
			return err
		}); err != nil {
			return err
		}
		if *arm.dec, err = loop(func() error {
			_, err := key.Decrypt(cs[0])
			return err
		}); err != nil {
			return err
		}
	}

	m.MontWindowedSpeedup = speedup(m.MontWindowedOffSeconds, m.MontWindowedOnSeconds)
	m.MontSumSpeedup = speedup(m.MontSumOffSeconds, m.MontSumOnSeconds)
	m.MontDecryptRatio = speedup(m.MontDecryptOffSeconds, m.MontDecryptOnSeconds)
	return nil
}

// encryptE2E wall-clocks one selection variant under each randomizer mode
// and checks every mode selects the classic baseline's participants. The
// clusters are built through vfl.ClusterConfig, whose Mont field reaches the
// math/big reference backend for the mont-off arm.
func encryptE2E(ctx context.Context, opt Options, res *EncryptResult, variant string) ([]EncryptE2E, error) {
	d, err := vfps.GenerateDataset("Bank", res.Rows)
	if err != nil {
		return nil, err
	}
	pt, err := vfps.VerticalSplit(d, res.Parties, opt.Seed+101)
	if err != nil {
		return nil, err
	}
	queries := core.SampleQueries(res.Rows, res.Queries, opt.Seed)
	run := func(window, mont int, shared *vfps.PoolSet) (*core.Selection, error) {
		cl, err := vfl.NewLocalCluster(ctx, vfl.ClusterConfig{
			Partition:     pt,
			Scheme:        "paillier",
			KeyBits:       res.KeyBits,
			ShuffleSeed:   opt.Seed + 303,
			Pack:          true,
			EncryptWindow: window,
			Mont:          mont,
			Pool:          shared,
		})
		if err != nil {
			return nil, err
		}
		defer cl.Close()
		return core.Select(ctx, cl.Leader, opt.SelectCount, core.Config{
			K:       opt.K,
			Queries: queries,
			Variant: vfl.Variant(variant),
			Seed:    opt.Seed,
		})
	}

	classic, err := run(-1, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("%s classic: %w", variant, err)
	}
	out := []EncryptE2E{{
		Variant:       variant,
		Mode:          "classic",
		Seconds:       classic.WallTime.Seconds(),
		Speedup:       1,
		Selected:      classic.Selected,
		SelectedMatch: true,
	}}

	ps := vfps.NewPoolSet(0, 1)
	defer ps.Close()
	for _, mode := range []struct {
		name   string
		window int
		mont   int
		shared *vfps.PoolSet
	}{
		{"windowed", 0, 0, nil},
		{"shared", 0, 0, ps},
		{"mont-off", 0, -1, nil},
	} {
		sel, err := run(mode.window, mode.mont, mode.shared)
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", variant, mode.name, err)
		}
		out = append(out, EncryptE2E{
			Variant:       variant,
			Mode:          mode.name,
			Seconds:       sel.WallTime.Seconds(),
			Speedup:       speedup(classic.WallTime.Seconds(), sel.WallTime.Seconds()),
			Selected:      sel.Selected,
			SelectedMatch: equalInts(classic.Selected, sel.Selected),
		})
	}
	return out, nil
}

func encryptTable(r *EncryptResult) *Table {
	m := r.Micro
	t := &Table{
		Title: fmt.Sprintf("Encryption hot path (GOMAXPROCS=%d, degree=%d, window=%d)",
			r.GOMAXPROCS, r.Parallelism, m.Window),
		Header: []string{"workload", "baseline", "optimised", "gain"},
	}
	base := fmtSeconds(m.InlineSeconds)
	t.Rows = append(t.Rows,
		[]string{fmt.Sprintf("Encrypt n=%d b=%d fixed-base w=%d", m.N, m.Bits, m.Window),
			base, fmtSeconds(m.WindowedSeconds), fmt.Sprintf("%.2fx", m.WindowedSpeedup)},
		[]string{fmt.Sprintf("Encrypt n=%d b=%d CRT", m.N, m.Bits),
			base, fmtSeconds(m.CRTSeconds), fmt.Sprintf("%.2fx", m.CRTSpeedup)},
		[]string{fmt.Sprintf("Encrypt n=%d b=%d CRT+window", m.N, m.Bits),
			base, fmtSeconds(m.CRTWindowedSeconds), fmt.Sprintf("%.2fx", m.CRTWindowedSpeedup)},
		[]string{fmt.Sprintf("Encrypt n=%d b=%d prefilled pool", m.N, m.Bits),
			base, fmtSeconds(m.PooledSeconds), fmt.Sprintf("%.2fx", m.PooledSpeedup)},
		[]string{fmt.Sprintf("Mont kernel: windowed encrypt n=%d b=%d", m.N, m.Bits),
			fmtSeconds(m.MontWindowedOffSeconds), fmtSeconds(m.MontWindowedOnSeconds),
			fmt.Sprintf("%.2fx", m.MontWindowedSpeedup)},
		[]string{fmt.Sprintf("Mont kernel: sum of 64 ciphertexts x%d b=%d", m.N, m.Bits),
			fmtSeconds(m.MontSumOffSeconds), fmtSeconds(m.MontSumOnSeconds),
			fmt.Sprintf("%.2fx", m.MontSumSpeedup)},
		[]string{fmt.Sprintf("Mont kernel: CRT decrypt n=%d b=%d", m.N, m.Bits),
			fmtSeconds(m.MontDecryptOffSeconds), fmtSeconds(m.MontDecryptOnSeconds),
			fmt.Sprintf("%.2fx", m.MontDecryptRatio)},
	)
	var classicSecs float64
	for _, e := range r.EndToEnd {
		if e.Mode == "classic" {
			classicSecs = e.Seconds
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("selection %s/%s n=%d q=%d (match=%v)",
				e.Variant, e.Mode, r.Rows, r.Queries, e.SelectedMatch),
			fmtSeconds(classicSecs), fmtSeconds(e.Seconds),
			fmt.Sprintf("%.2fx", e.Speedup),
		})
	}
	return t
}
