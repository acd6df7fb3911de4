package main

import (
	"context"
	"fmt"

	"vfps"
	"vfps/internal/core"
	"vfps/internal/dataset"
	"vfps/internal/he"
	"vfps/internal/obs"
	"vfps/internal/transport"
	"vfps/internal/vfl"
	"vfps/internal/wire"
)

// deployment is one wired consortium the closed loop drives.
type deployment interface {
	// selectOnce runs one whole selection over the given query rows.
	selectOnce(ctx context.Context, queries []int) (*core.Selection, error)
	close()
}

// buildDeployment wires the workload's untraced consortium: through the
// public vfps API in process, the way cmd/vfpsnode wires each role over TCP.
func buildDeployment(ctx context.Context, w shape, in *inputs) (deployment, error) {
	if w.tcp {
		return buildTCP(ctx, w, in, nil, nil)
	}
	return buildPublic(ctx, w, in)
}

// buildTraced wires the workload's consortium with every role's
// transport.Caller and transport.Handler wrapped by t and the HE metrics on
// o. In process this rebuilds the wiring of vfl.NewLocalCluster, whose
// transport the public API does not expose.
func buildTraced(ctx context.Context, w shape, in *inputs, t *tracer, o *obs.Observer) (*wiredDeployment, error) {
	if w.tcp {
		return buildTCP(ctx, w, in, t, o)
	}
	return buildInProcess(ctx, w, in, t, o)
}

// publicDeployment is a consortium built and driven through package vfps.
type publicDeployment struct {
	cons *vfps.Consortium
	w    shape
}

func buildPublic(ctx context.Context, w shape, in *inputs) (*publicDeployment, error) {
	cons, err := vfps.NewConsortium(ctx, vfps.Config{
		Partition: in.pt,
		Labels:    in.labels,
		Classes:   in.classes,
		Scheme:    w.scheme,
		KeyBits:   w.keyBits,
		Pack:      w.pack,
		Wire:      "binary",
	})
	if err != nil {
		return nil, err
	}
	return &publicDeployment{cons: cons, w: w}, nil
}

func (d *publicDeployment) selectOnce(ctx context.Context, queries []int) (*core.Selection, error) {
	return d.cons.Select(ctx, d.w.selectCount, vfps.SelectOptions{
		K:       d.w.k,
		Queries: queries,
		TopK:    string(d.w.variant),
	})
}

func (d *publicDeployment) close() { d.cons.Close() }

// wiredDeployment is a consortium whose roles the benchmark wired itself,
// over the in-memory transport or over TCP listeners on 127.0.0.1. A nil
// tracer and observer give the untraced wiring.
type wiredDeployment struct {
	w       shape
	leader  *vfl.Leader
	keys    *vfl.KeyServer // timeKernel reuses a Paillier run's key
	schemes []he.Scheme
	servers []*transport.TCPServer
	clients []*transport.TCPClient
}

func (d *wiredDeployment) selectOnce(ctx context.Context, queries []int) (*core.Selection, error) {
	return core.Select(ctx, d.leader, d.w.selectCount, core.Config{K: d.w.k, Queries: queries, Variant: d.w.variant})
}

func (d *wiredDeployment) close() {
	for i := len(d.servers) - 1; i >= 0; i-- {
		d.servers[i].Close()
	}
	for _, c := range d.clients {
		c.Close()
	}
	for _, s := range d.schemes {
		if p, ok := s.(*he.Paillier); ok {
			p.Close()
		}
	}
}

// fetch pulls a scheme from the key server through c, keeping it so close
// can stop its randomizer pool.
func (d *wiredDeployment) fetch(ctx context.Context, c transport.Caller, private bool) (he.Scheme, error) {
	s, err := fetchScheme(ctx, c, private)
	if err == nil {
		d.schemes = append(d.schemes, s)
	}
	return s, err
}

// fetchScheme pulls the public or the private scheme from the key server
// over the binary codec.
func fetchScheme(ctx context.Context, c transport.Caller, private bool) (he.Scheme, error) {
	cc := transport.NewCodecCaller(c, wire.Binary())
	if private {
		return vfl.FetchPrivateSchemeWire(ctx, cc, vfl.KeyServerName)
	}
	return vfl.FetchPublicSchemeWire(ctx, cc, vfl.KeyServerName)
}

// newKeyServer builds the key server the way vfl.NewLocalCluster and
// cmd/vfpsnode do for the scheme.
func newKeyServer(w shape, shuffleSeed int64, parties int) (*vfl.KeyServer, error) {
	if w.scheme == "secagg" {
		return vfl.NewKeyServerSecAgg(parties, shuffleSeed^0x5eca66)
	}
	return vfl.NewKeyServer(w.scheme, w.keyBits)
}

// tune applies the default HE settings a role gets in vfl.NewLocalCluster
// and cmd/vfpsnode: default parallelism, a randomizer pool on encrypting
// roles, and packing with headroom for one addition per party.
func tune(s he.Scheme, pool, pack bool, parties int) error {
	p, ok := s.(*he.Paillier)
	if !ok {
		return nil
	}
	p.SetMont(0)
	p.SetParallelism(0)
	if pool {
		p.SetEncryptWindow(0)
		p.StartRandomizerPool(4*p.Parallelism(), 1)
	}
	if pack {
		return p.EnablePacking(parties)
	}
	return nil
}

// observe installs the HE op counters and latency histograms the traced
// run reads back.
func observe(s he.Scheme, o *obs.Observer, instance string) {
	if ob, ok := s.(he.Observable); ok && o != nil {
		ob.SetObserver(o.Registry(), instance)
	}
}

// buildInProcess mirrors vfl.NewLocalCluster (the wiring behind
// vfps.NewConsortium): one in-memory transport, one public scheme shared by
// the participants and the aggregation server, and a pool-less private
// scheme on the leader.
func buildInProcess(ctx context.Context, w shape, in *inputs, t *tracer, o *obs.Observer) (d *wiredDeployment, err error) {
	codec := wire.Binary()
	p := in.pt.P()
	mem := &transport.Memory{}
	d = &wiredDeployment{w: w}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.keys, err = newKeyServer(w, 0, p); err != nil {
		return d, err
	}
	d.keys.SetCodec(codec)
	mem.Register(vfl.KeyServerName, t.handler(vfl.KeyServerName, d.keys.Handler()))
	pub, err := d.fetch(ctx, t.caller(mem, "setup"), false)
	if err != nil {
		return d, err
	}
	if err := tune(pub, true, w.pack, p); err != nil {
		return d, err
	}
	observe(pub, o, "public")
	names := make([]string, p)
	for i := 0; i < p; i++ {
		part, err := vfl.NewParticipant(i, in.pt.Parties[i], pub, 0)
		if err != nil {
			return d, err
		}
		part.SetCodec(codec)
		names[i] = vfl.PartyName(i)
		mem.Register(names[i], t.handler(names[i], part.Handler()))
	}
	agg, err := vfl.NewAggServer(t.caller(mem, vfl.AggServerName), names, pub)
	if err != nil {
		return d, err
	}
	agg.SetCodec(codec)
	mem.Register(vfl.AggServerName, t.handler(vfl.AggServerName, agg.Handler()))
	priv, err := d.fetch(ctx, t.caller(mem, "setup"), true)
	if err != nil {
		return d, err
	}
	if err := tune(priv, false, w.pack, p); err != nil {
		return d, err
	}
	observe(priv, o, "leader")
	if d.leader, err = vfl.NewLeader(t.caller(mem, "leader"), vfl.AggServerName, names, priv, 0); err != nil {
		return d, err
	}
	d.leader.SetCodec(codec)
	return d, nil
}

// buildTCP wires each role the way cmd/vfpsnode does in its own process —
// own TCP client, own key fetch, own scheme — but all inside this process,
// each serving role on its own 127.0.0.1 listener.
func buildTCP(ctx context.Context, w shape, in *inputs, t *tracer, o *obs.Observer) (d *wiredDeployment, err error) {
	const shuffleSeed = 7 // cmd/vfpsnode's default
	codec := wire.Binary()
	p := in.pt.P()
	d = &wiredDeployment{w: w}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	listen := func(role string, h transport.Handler) (string, error) {
		srv, err := transport.ListenTCP("127.0.0.1:0", t.handler(role, h))
		if err != nil {
			return "", err
		}
		d.servers = append(d.servers, srv)
		return srv.Addr(), nil
	}
	client := func(dir map[string]string) *transport.TCPClient {
		c := transport.NewTCPClient(dir)
		d.clients = append(d.clients, c)
		return c
	}
	ks, err := newKeyServer(w, shuffleSeed, p)
	if err != nil {
		return d, err
	}
	ks.SetCodec(codec)
	d.keys = ks
	dir := map[string]string{}
	if dir[vfl.KeyServerName], err = listen(vfl.KeyServerName, ks.Handler()); err != nil {
		return d, err
	}
	names := make([]string, p)
	for i := 0; i < p; i++ {
		names[i] = vfl.PartyName(i)
		pub, err := d.fetch(ctx, t.caller(client(dir), names[i]), false)
		if err != nil {
			return d, err
		}
		if err := tune(pub, true, w.pack, p); err != nil {
			return d, err
		}
		observe(pub, o, names[i])
		part, err := vfl.NewParticipant(i, in.pt.Parties[i], pub, shuffleSeed)
		if err != nil {
			return d, err
		}
		part.SetCodec(codec)
		if dir[names[i]], err = listen(names[i], part.Handler()); err != nil {
			return d, err
		}
	}
	aggCaller := t.caller(client(dir), vfl.AggServerName)
	pub, err := d.fetch(ctx, aggCaller, false)
	if err != nil {
		return d, err
	}
	if err := tune(pub, false, false, p); err != nil {
		return d, err
	}
	agg, err := vfl.NewAggServer(aggCaller, names, pub)
	if err != nil {
		return d, err
	}
	agg.SetCodec(codec)
	if dir[vfl.AggServerName], err = listen(vfl.AggServerName, agg.Handler()); err != nil {
		return d, err
	}
	leaderCaller := t.caller(client(dir), "leader")
	priv, err := d.fetch(ctx, leaderCaller, true)
	if err != nil {
		return d, err
	}
	if err := tune(priv, false, w.pack, p); err != nil {
		return d, err
	}
	observe(priv, o, "leader")
	leader, err := vfl.NewLeader(leaderCaller, vfl.AggServerName, names, priv, 0)
	if err != nil {
		return d, err
	}
	leader.SetCodec(codec)
	d.leader = leader
	return d, nil
}

// inputs is what a run feeds the program: the workload's dataset and
// vertical split, and the query rows of every selection, which the workload
// seed draws.
type inputs struct {
	pt      *dataset.Partition
	labels  []int
	classes int
	seed    int64
	n, nq   int
}

func makeInputs(w shape, seed int64) (*inputs, error) {
	spec, err := dataset.SpecByName(w.dataset)
	if err != nil {
		return nil, err
	}
	d, err := spec.Generate(w.rows)
	if err != nil {
		return nil, err
	}
	if d.N() < w.rows {
		return nil, fmt.Errorf("dataset %s has %d rows, workload needs %d", w.dataset, d.N(), w.rows)
	}
	pt, err := dataset.VerticalSplit(d, w.parties, w.splitSeed)
	if err != nil {
		return nil, err
	}
	return &inputs{pt: pt, labels: d.Y, classes: d.Classes, seed: seed, n: d.N(), nq: w.queries}, nil
}

// queries returns selection i's query rows: a fresh sample per selection,
// fixed by the workload seed.
func (in *inputs) queries(i int) []int {
	return sampleRows(in.n, in.nq, mix(in.seed, int64(i)))
}
