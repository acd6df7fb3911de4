package he

import (
	"context"
	"math/big"
	"time"

	"vfps/internal/paillier"
	"vfps/internal/par"
)

// VecScheme is implemented by schemes with an optimized vector fast path
// (worker-pool parallelism, pooled randomizers). Callers should go through
// the package-level EncryptVec/DecryptVec helpers, which fall back to a
// serial loop for plain Scheme implementations.
type VecScheme interface {
	Scheme
	// EncryptVec encrypts a vector of real values, polling ctx between
	// chunks.
	EncryptVec(ctx context.Context, vs []float64) ([][]byte, error)
	// DecryptVec recovers a vector of (possibly aggregated) real values.
	DecryptVec(ctx context.Context, cs [][]byte) ([]float64, error)
}

// vecChunk is the ctx poll interval of the serial fallback loops.
const vecChunk = 16

// EncryptVec encrypts vs under s, using the scheme's vector fast path when
// it has one and a serial loop otherwise. The fallback stays serial on
// purpose: schemes whose output depends on call order (the DP noise stream)
// must see the exact sequence a serial protocol run would produce.
func EncryptVec(ctx context.Context, s Scheme, vs []float64) ([][]byte, error) {
	if v, ok := s.(VecScheme); ok {
		return v.EncryptVec(ctx, vs)
	}
	out := make([][]byte, len(vs))
	for i, x := range vs {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		c, err := s.Encrypt(x)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// DecryptVec decrypts cs under s, using the scheme's vector fast path when
// it has one and a serial loop otherwise.
func DecryptVec(ctx context.Context, s Scheme, cs [][]byte) ([]float64, error) {
	if v, ok := s.(VecScheme); ok {
		return v.DecryptVec(ctx, cs)
	}
	out := make([]float64, len(cs))
	for i, c := range cs {
		if i%vecChunk == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		v, err := s.Decrypt(c)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// ---- Paillier vector fast path ----

// SetParallelism pins the worker count of the scheme's vector operations:
// 1 restores fully serial execution (the determinism baseline), values <= 0
// restore the default (VFPS_PARALLELISM or GOMAXPROCS).
func (p *Paillier) SetParallelism(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n < 0 {
		n = 0
	}
	p.parallelism = n
}

// Parallelism reports the effective worker count for vector operations.
func (p *Paillier) Parallelism() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return par.Normalize(p.parallelism)
}

// SetMont selects the modular-arithmetic backend for this scheme's key
// material: 0 or positive runs the Montgomery kernel, negative forces the
// pure math/big reference. Both backends compute identical residues. Set it
// before starting pools or sending traffic — tables built under one backend
// keep that representation for their lifetime.
func (p *Paillier) SetMont(m int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.pk.Mont = m
	if p.sk != nil {
		p.sk.Mont = m
	}
}

// Mont reports the configured modular-arithmetic backend knob.
func (p *Paillier) Mont() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.pk.Mont
}

// SetEncryptWindow pins the fixed-base window width used when this scheme
// starts its own randomizer pool: 0 keeps paillier.DefaultWindow, negative
// restores classic uniform-r sampling (full modexp per randomizer). It has
// no effect on an already-running or attached pool.
func (p *Paillier) SetEncryptWindow(w int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.window = w
}

// EncryptWindow reports the configured fixed-base window width.
func (p *Paillier) EncryptWindow() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.window
}

// StartRandomizerPool starts background precomputation of encryption
// randomizers (r^n mod n²) so subsequent encryptions hit the two-mulmod fast
// path. buffer bounds the pool (<= 0 → 64); workers is the number of filler
// goroutines (<= 0 → 1). Production uses fixed-base windowing per
// SetEncryptWindow and, on a key-holding scheme, the CRT half-width path.
// Calling it again is a no-op. Close releases the pool's goroutines.
func (p *Paillier) StartRandomizerPool(buffer, workers int) {
	p.mu.Lock()
	if p.rz != nil {
		p.mu.Unlock()
		return
	}
	p.rz = paillier.NewRandomizerOpts(p.pk, p.random, paillier.PoolOptions{
		Buffer:  buffer,
		Workers: workers,
		Window:  p.window,
		Key:     p.sk,
	})
	p.ownPool = true
	p.mu.Unlock()
	p.syncPoolObs()
}

// AttachPool points the scheme at a shared cluster-lifetime pool from ps
// (created on first use for this scheme's key). The pool is owned by the
// set — Close on this scheme leaves it running for the other sharers. A
// no-op when a pool is already running or the set is closed.
func (p *Paillier) AttachPool(ps *PoolSet) {
	if ps == nil {
		return
	}
	p.mu.Lock()
	if p.rz != nil {
		p.mu.Unlock()
		return
	}
	rz := ps.For(p.pk, p.random, p.sk)
	if rz == nil {
		p.mu.Unlock()
		return
	}
	p.rz = rz
	p.ownPool = false
	p.mu.Unlock()
	p.syncPoolObs()
}

// RefillHint implements Refiller: it asynchronously prefills up to n pooled
// randomizers, bounded by spare buffer capacity. Protocol roles call it at
// the end of an encryption burst so the idle gap until the next round fills
// the pool instead of the next burst's first encryptions missing it. At most
// one hint runs at a time; extras are dropped (the running one is already
// filling toward capacity).
func (p *Paillier) RefillHint(n int) {
	rz := p.pool()
	if rz == nil || rz.Closed() || n <= 0 {
		return
	}
	if !p.hinting.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer p.hinting.Store(false)
		_, _ = rz.Prefill(n)
	}()
}

// PrefillRandomizers synchronously computes up to n pooled randomizers (the
// pool must have been started); it returns how many were added.
func (p *Paillier) PrefillRandomizers(n int) (int, error) {
	rz := p.pool()
	if rz == nil {
		return 0, nil
	}
	return rz.Prefill(n)
}

// Close stops the randomizer pool if this scheme owns one; a pool attached
// from a shared PoolSet is only detached (its owner closes it). The scheme
// remains usable; encryption just computes randomizers inline again.
func (p *Paillier) Close() {
	p.mu.Lock()
	rz, own := p.rz, p.ownPool
	p.rz = nil
	p.ownPool = false
	p.mu.Unlock()
	if rz != nil && own {
		rz.Close()
	}
}

func (p *Paillier) pool() *paillier.Randomizer {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.rz
}

// EncryptVec implements VecScheme: fixed-point encoding (serial, cheap)
// followed by chunked worker-pool encryption drawing from the randomizer
// pool when one is running.
func (p *Paillier) EncryptVec(ctx context.Context, vs []float64) ([][]byte, error) {
	if om := p.om.Load(); om != nil {
		defer om.vec("encrypt", len(vs), time.Now())
	}
	ms := make([]*big.Int, len(vs))
	for i, v := range vs {
		m, err := p.codec.Encode(v)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	cs, err := p.pk.EncryptVec(ctx, p.random, p.pool(), ms, p.Parallelism())
	if err != nil {
		return nil, err
	}
	out := make([][]byte, len(cs))
	for i, c := range cs {
		out[i] = c.Bytes()
	}
	return out, nil
}

// parseAll decodes and validates a batch of serialised ciphertexts.
func (p *Paillier) parseAll(cs [][]byte) ([]*paillier.Ciphertext, error) {
	cts := make([]*paillier.Ciphertext, len(cs))
	for i, c := range cs {
		ct, err := p.pk.ParseCiphertext(c)
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	return cts, nil
}

// DecryptVec implements VecScheme with a chunked worker pool.
func (p *Paillier) DecryptVec(ctx context.Context, cs [][]byte) ([]float64, error) {
	if p.sk == nil {
		return nil, ErrNoPrivateKey
	}
	if om := p.om.Load(); om != nil {
		start := time.Now()
		defer func() {
			om.vec("decrypt", len(cs), start)
			om.dec(p.sk.HasCRT(), start)
		}()
	}
	cts, err := p.parseAll(cs)
	if err != nil {
		return nil, err
	}
	ms, err := p.sk.DecryptVec(ctx, cts, p.Parallelism())
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(ms))
	for i, m := range ms {
		out[i] = p.codec.Decode(m)
	}
	return out, nil
}
