package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"syscall"
	"time"

	"vfps/internal/core"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/submod"
	"vfps/internal/transport"
	"vfps/internal/vfl"
)

// record is one selection of the closed loop.
type record struct {
	queries []int
	sel     *core.Selection
	err     error
	wall    float64 // seconds, timed around the call
}

// loop is the outcome of one closed loop.
type loop struct {
	recs     []record
	window   float64 // seconds from the first call to the last return
	cpu      float64 // process user+system CPU seconds over the window
	allocMB  float64 // heap bytes allocated by the selections, in MB
	gcCycles float64 // GC cycles completed during the selections
}

// closedLoop drives one caller against dep: each selection starts when the
// previous one returns. It runs at least one selection and starts no new
// one once dur has passed.
func closedLoop(ctx context.Context, dep deployment, in *inputs, dur time.Duration) loop {
	var l loop
	cpu0, _ := rusage()
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		if ctx.Err() != nil {
			break
		}
		qs := in.queries(i)
		t0 := time.Now()
		sel, err := dep.selectOnce(ctx, qs)
		l.recs = append(l.recs, record{queries: qs, sel: sel, err: err, wall: time.Since(t0).Seconds()})
		if err != nil {
			logf("selection %d failed: %v", i, err)
		} else {
			logf("selection %d: %.3fs, %d encryptions, %d wire bytes", i, l.recs[i].wall, sel.Counts.Encryptions, sel.Counts.WireBytes())
		}
	}
	l.window = time.Since(start).Seconds()
	cpu1, _ := rusage()
	l.cpu = cpu1 - cpu0
	return l
}

// check compares every selection with the plaintext reference, outside any
// timed window, and returns how many failed (errors included).
func check(in *inputs, w shape, recs []record) int {
	failed := 0
	for i, r := range recs {
		if r.err != nil {
			failed++
			continue
		}
		ref := referenceSelect(in.pt, r.queries, w.k, w.selectCount)
		tied, err := ref.check(r.sel.Selected, r.sel.W)
		switch {
		case err != nil:
			logf("selection %d differs from the plaintext reference: %v", i, err)
			failed++
		case tied:
			logf("selection %d picked %v where the reference breaks a tie of equal gains to %v", i, r.sel.Selected, ref.selected)
		}
	}
	return failed
}

// ok returns the successful selections.
func ok(recs []record) []record {
	var out []record
	for _, r := range recs {
		if r.err == nil {
			out = append(out, r)
		}
	}
	return out
}

// runUntraced measures the end-to-end metrics.
func runUntraced(ctx context.Context, w shape, seed int64, dur time.Duration) (*result, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	// Set-up is timed over several builds: at 2048 bits the prime search
	// alone varies several-fold from one build to the next.
	var setups []float64
	var dep deployment
	for i := 0; i < w.setupBuilds; i++ {
		t0 := time.Now()
		d, err := buildDeployment(ctx, w, in)
		if err != nil {
			return nil, fmt.Errorf("building the consortium: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < w.setupBuilds-1 {
			d.close()
		} else {
			dep = d
		}
	}
	l := closedLoop(ctx, dep, in, dur)
	dep.close()
	failed := check(in, w, l.recs)
	good := ok(l.recs)
	var walls []float64
	var wireBytes float64
	for _, r := range good {
		walls = append(walls, r.wall)
		wireBytes += float64(r.sel.Counts.WireBytes())
	}
	n := float64(max(len(good), 1))
	_, peak := rusage()
	return &result{
		Correct:   failed == 0,
		Attempted: len(l.recs),
		Failed:    failed,
		Metrics: map[string]metric{
			"select_s_p50":          {median(walls), "s"},
			"selections_per_s":      {float64(len(good)) / l.window, "1/s"},
			"setup_s":               {median(setups), "s"},
			"cpu_s_per_select":      {l.cpu / float64(len(l.recs)), "s"},
			"wire_bytes_per_select": {wireBytes / n, "B"},
			"peak_rss_mb":           {peak, "MB"},
		},
	}, nil
}

// runTraced fills the per-layer ledger. It builds an untraced and a traced
// deployment side by side and, for each fresh query set, runs the untraced
// selection and then its traced twin, until the time is up. The pairs must
// agree, and the difference between their times is the tracing overhead.
func runTraced(ctx context.Context, w shape, seed int64, dur time.Duration) (*result, error) {
	in, err := makeInputs(w, seed)
	if err != nil {
		return nil, err
	}
	dep, err := buildDeployment(ctx, w, in)
	if err != nil {
		return nil, fmt.Errorf("building the consortium: %w", err)
	}
	defer dep.close()
	t := newTracer()
	o := &obs.Observer{Metrics: obs.New()}
	tdep, err := buildTraced(ctx, w, in, t, o)
	if err != nil {
		return nil, fmt.Errorf("building the traced consortium: %w", err)
	}
	defer tdep.close()
	t.drain() // key distribution is set-up, not selection

	led := newLedger()
	var base loop
	var traced []record
	dec0 := histogramSum(o, "vfps_he_decrypt_seconds", "leader")
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < dur; i++ {
		if ctx.Err() != nil {
			break
		}
		qs := in.queries(i)
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		sel, err := dep.selectOnce(ctx, qs)
		b := record{queries: qs, sel: sel, err: err, wall: time.Since(t0).Seconds()}
		runtime.ReadMemStats(&ms1)
		base.allocMB += float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
		base.gcCycles += float64(ms1.NumGC - ms0.NumGC)
		base.recs = append(base.recs, b)
		if err != nil {
			logf("selection %d failed: %v", i, err)
			continue
		}

		id := t.newID()
		spanStart := t.now()
		t0 = time.Now()
		sel, err = tdep.selectOnce(withParent(ctx, id), qs)
		r := record{queries: qs, sel: sel, err: err, wall: time.Since(t0).Seconds()}
		t.record(span{id: id, kind: kindSelect, role: "leader", start: spanStart, end: t.now()})
		spans := t.drain()
		if err == nil {
			if ierr := identical(b.sel, sel); ierr != nil {
				r.err = fmt.Errorf("traced run differs from untraced run: %w", ierr)
			} else if lerr := led.add(spans); lerr != nil {
				r.err = lerr
			}
		}
		if r.err != nil {
			logf("traced selection %d failed: %v", i, r.err)
		} else {
			logf("selection %d: %.3fs untraced, %.3fs traced", i, b.wall, r.wall)
		}
		traced = append(traced, r)
	}
	decrypt := histogramSum(o, "vfps_he_decrypt_seconds", "leader") - dec0

	failed := check(in, w, base.recs) + check(in, w, traced)
	kernel, err := timeKernel(ctx, w, tdep.keys, in.pt.P())
	if err != nil {
		return nil, fmt.Errorf("timing the paillier kernel: %w", err)
	}
	return &result{
		Correct:   failed == 0,
		Attempted: len(base.recs) + len(traced),
		Failed:    failed,
		Metrics:   layerMetrics(w, o, base, traced, led, decrypt, kernel),
	}, nil
}

// identical reports whether two runs of one query set agree on the selected
// participants and every operation count.
func identical(a, b *core.Selection) error {
	if fmt.Sprint(a.Selected) != fmt.Sprint(b.Selected) {
		return fmt.Errorf("selected %v vs %v", a.Selected, b.Selected)
	}
	// A Paillier ciphertext's encoding drops leading zero bytes, so the
	// payload and framing bytes of two randomized encryptions of the same
	// values differ by a few bytes; every other count must match exactly.
	ca, cb := a.Counts, b.Counts
	slack := float64(max(ca.WireBytes(), cb.WireBytes())) * bytesSlack
	for _, d := range []int64{ca.BytesSent - cb.BytesSent, ca.FramingBytes - cb.FramingBytes} {
		if float64(max(d, -d)) > slack {
			return fmt.Errorf("wire bytes %d+%d vs %d+%d", ca.BytesSent, ca.FramingBytes, cb.BytesSent, cb.FramingBytes)
		}
	}
	ca.BytesSent, cb.BytesSent, ca.FramingBytes, cb.FramingBytes = 0, 0, 0, 0
	if ca != cb {
		return fmt.Errorf("counts %s vs %s", a.Counts, b.Counts)
	}
	return nil
}

// bytesSlack is the share of the wire bytes by which the payload or the
// framing of a traced and an untraced run of one query set may differ. A
// ciphertext is one byte short with probability 1/256 (and at 1024 bits or
// less its length prefix shrinks with it), which moves a selection by a few
// bytes in tens of kilobytes.
const bytesSlack = 1e-3

// kernelTimes are per-ciphertext Paillier costs in microseconds.
type kernelTimes struct{ encrypt, decrypt, add float64 }

// timeKernel calls he.Paillier.EncryptVec, DecryptVec and Add from outside
// the protocol, at the run's key (a fresh key of the run's size when the
// run's scheme is not Paillier), packing and parallelism. The public scheme
// starts its randomizer pool the way a participant does and is not
// prefilled.
func timeKernel(ctx context.Context, w shape, ks *vfl.KeyServer, parties int) (kernelTimes, error) {
	if w.scheme != "paillier" {
		var err error
		if ks, err = vfl.NewKeyServer("paillier", w.keyBits); err != nil {
			return kernelTimes{}, err
		}
	}
	mem := &transport.Memory{}
	mem.Register(vfl.KeyServerName, ks.Handler())
	pubS, err := fetchScheme(ctx, mem, false)
	if err != nil {
		return kernelTimes{}, err
	}
	privS, err := fetchScheme(ctx, mem, true)
	if err != nil {
		return kernelTimes{}, err
	}
	pub, priv := pubS.(*he.Paillier), privS.(*he.Paillier)
	if err := tune(pub, true, w.pack, parties); err != nil {
		return kernelTimes{}, err
	}
	defer pub.Close()
	if err := tune(priv, false, w.pack, parties); err != nil {
		return kernelTimes{}, err
	}
	const n, adds, reps = 32, 256, 3
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 10 * rng.Float64()
	}
	var enc, dec, add []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		cs, err := pub.EncryptVec(ctx, vals)
		if err != nil {
			return kernelTimes{}, err
		}
		enc = append(enc, time.Since(t0).Seconds()*1e6/n)
		t0 = time.Now()
		if _, err := priv.DecryptVec(ctx, cs); err != nil {
			return kernelTimes{}, err
		}
		dec = append(dec, time.Since(t0).Seconds()*1e6/n)
		t0 = time.Now()
		for i := 0; i < adds; i++ {
			if _, err := pub.Add(cs[i%n], cs[(i+1)%n]); err != nil {
				return kernelTimes{}, err
			}
		}
		add = append(add, time.Since(t0).Seconds()*1e6/adds)
	}
	return kernelTimes{encrypt: median(enc), decrypt: median(dec), add: median(add)}, nil
}

// greedySeconds times submod.Greedy on one selection's W from outside.
func greedySeconds(w [][]float64, count int) float64 {
	obj, err := submod.NewFacilityLocation(w)
	if err != nil {
		return 0
	}
	const reps = 200
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := submod.Greedy(obj, count); err != nil {
			return 0
		}
	}
	return time.Since(t0).Seconds() / reps
}

// layerMetrics assembles the per-layer ledger.
func layerMetrics(w shape, o *obs.Observer, base loop, traced []record, led *ledger, decrypt float64, k kernelTimes) map[string]metric {
	m := map[string]metric{
		"paillier.encrypt_us": {k.encrypt, "us"},
		"paillier.decrypt_us": {k.decrypt, "us"},
		"paillier.add_us":     {k.add, "us"},
	}
	good := ok(traced)
	n := float64(max(len(good), 1))
	var enc, decs, adds, flops, payload, framing, cands, evals, greedyS float64
	roleEnc := map[string]float64{}
	for _, r := range good {
		c := r.sel.Counts
		enc += float64(c.Encryptions)
		decs += float64(c.Decryptions)
		adds += float64(c.CipherAdds)
		flops += float64(c.DistanceFlops)
		payload += float64(c.BytesSent)
		framing += float64(c.FramingBytes)
		cands += r.sel.AvgCandidates
		evals += float64(r.sel.Evaluations)
		greedyS += greedySeconds(r.sel.W, w.selectCount)
		for role, rc := range r.sel.PerRole {
			roleEnc[role] += float64(rc.Encryptions)
		}
	}
	m["he.encryptions"] = metric{enc / n, "count"}
	m["he.decryptions"] = metric{decs / n, "count"}
	m["he.cipher_adds"] = metric{adds / n, "count"}
	m["he.pack_factor"] = metric{gauge(o, "vfps_he_pack_ratio", "leader", 1), "ratio"}
	m["he.pool_hit_frac"] = metric{poolHitFrac(o, roleEnc), "ratio"}

	m["party.busy_s"] = metric{led.partyBusy / n, "s"}
	m["party.span_s"] = metric{led.partySpan / n, "s"}
	m["party.distance_flops"] = metric{flops / n, "count"}
	for _, meth := range partyMethods {
		st := led.party[meth]
		m["party."+meth+"_s"] = metric{st.secs / n, "s"}
		m["party."+meth+"_calls"] = metric{float64(st.calls) / n, "count"}
	}
	m["agg.busy_s"] = metric{led.aggBusy / n, "s"}
	m["agg.wait_s"] = metric{led.aggWait / n, "s"}
	m["agg.self_s"] = metric{(led.aggBusy - led.aggWait) / n, "s"}
	for _, meth := range aggMethods {
		st := led.agg[meth]
		m["agg."+meth+"_s"] = metric{st.secs / n, "s"}
		m["agg."+meth+"_calls"] = metric{float64(st.calls) / n, "count"}
	}
	leaderSelf := led.wall - led.leaderWait
	m["leader.self_s"] = metric{leaderSelf / n, "s"}
	m["leader.wait_s"] = metric{led.leaderWait / n, "s"}
	m["leader.decrypt_s"] = metric{decrypt / n, "s"}
	m["transport.calls"] = metric{float64(led.calls) / n, "count"}
	m["transport.overhead_s"] = metric{led.overhead / n, "s"}
	m["transport.rtt_us_p50"] = metric{median(led.rttsUs), "us"}
	m["wire.payload_bytes"] = metric{payload / n, "B"}
	m["wire.framing_bytes"] = metric{framing / n, "B"}
	m["topk.avg_candidates"] = metric{cands / n, "count"}
	m["submod.greedy_s"] = metric{greedyS / n, "s"}
	m["submod.evaluations"] = metric{evals / n, "count"}

	var projected, baseWall float64
	var baseWalls, tracedWalls []float64
	baseOK := ok(base.recs)
	for _, r := range baseOK {
		projected += r.sel.ProjectedSeconds
		baseWall += r.wall
		baseWalls = append(baseWalls, r.wall)
	}
	for _, r := range good {
		tracedWalls = append(tracedWalls, r.wall)
	}
	m["costmodel.projection_ratio"] = metric{projected / max(baseWall, 1e-9), "ratio"}
	runs := float64(max(len(base.recs), 1))
	m["go.alloc_mb_per_select"] = metric{base.allocMB / runs, "MB"}
	m["go.gc_cycles_per_select"] = metric{base.gcCycles / runs, "count"}
	// The leader's own named work is decryption and the greedy step; the
	// rest of its self time (codec, accumulation, orchestration) is covered
	// by no layer the benchmark wraps.
	m["ledger.unattributed_frac"] = metric{(leaderSelf - decrypt - greedyS) / max(led.wall, 1e-9), "ratio"}
	m["trace.overhead_frac"] = metric{median(tracedWalls)/max(median(baseWalls), 1e-9) - 1, "ratio"}
	return m
}

// gauge reads one series of a gauge family by its instance label.
func gauge(o *obs.Observer, family, instance string, def float64) float64 {
	for _, f := range o.Registry().Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["instance"] == instance {
				return s.Value
			}
		}
	}
	return def
}

// histogramSum adds the sums of every series of a histogram family carrying
// the instance label.
func histogramSum(o *obs.Observer, family, instance string) float64 {
	var sum float64
	for _, f := range o.Registry().Snapshot() {
		if f.Name != family {
			continue
		}
		for _, s := range f.Series {
			if s.Labels["instance"] == instance && s.Histogram != nil {
				sum += s.Histogram.Sum
			}
		}
	}
	return sum
}

// poolHitFrac is the share of randomizer draws the pools served, over every
// encrypting scheme instance, weighted by the ciphertexts that instance's
// roles encrypted. The in-process wiring shares one "public" scheme between
// all participants. 0 when no Paillier pool ran.
func poolHitFrac(o *obs.Observer, roleEnc map[string]float64) float64 {
	var total float64
	for role, e := range roleEnc {
		if strings.HasPrefix(role, "party/") {
			total += e
		}
	}
	var hits, draws float64
	for _, f := range o.Registry().Snapshot() {
		if f.Name != "vfps_he_randomizer_fallback_rate" {
			continue
		}
		for _, s := range f.Series {
			inst := s.Labels["instance"]
			weight := roleEnc[inst]
			if inst == "public" {
				weight = total
			}
			hits += (1 - s.Value) * weight
			draws += weight
		}
	}
	if draws == 0 {
		return 0
	}
	return hits / draws
}

// rusage reports the process's user plus system CPU seconds and its peak
// resident set in MB.
func rusage() (cpu, peakMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	return cpu, float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
