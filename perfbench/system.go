package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"athena/internal/cluster"
	"athena/internal/core"
	"athena/internal/qnn"
	"athena/internal/serve"
)

// The system under test runs in this process, the way the repository's
// own serving benchmarks host it: servers and the router listen on
// loopback TCP and are driven only through their public APIs.

// Batcher settings shared by every node: the serving defaults of
// athena-serve's benchmark rows.
const (
	nodeMaxBatch = 16
	nodeMaxWait  = 25 * time.Millisecond
	nodeMaxQueue = 256
)

// node is one in-process athena-serve instance hosting DemoNet with the
// durable session store in its own temporary directory.
type node struct {
	srv  *serve.Server
	addr string
	wg   sync.WaitGroup
}

func startNode(r *run, memCap, diskCap int64) (*node, error) {
	dir, err := os.MkdirTemp(r.tmp, "node-*")
	if err != nil {
		return nil, err
	}
	demo := serve.DemoNet()
	srv, err := serve.NewServer(serve.Config{
		Params:       r.p,
		Models:       map[string]*qnn.QNetwork{demo.Name: demo},
		MaxBatch:     nodeMaxBatch,
		MaxWait:      nodeMaxWait,
		MaxQueue:     nodeMaxQueue,
		MemCapBytes:  memCap,
		DataDir:      dir,
		DiskCapBytes: diskCap,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	n := &node{srv: srv, addr: ln.Addr().String()}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.srv.Serve(ln) // returns once Shutdown closes the listener
	}()
	return n, nil
}

func (n *node) stop() {
	n.srv.Shutdown()
	n.wg.Wait()
}

// router is an in-process cluster router in front of nodes.
type router struct {
	rt   *cluster.Router
	addr string
	wg   sync.WaitGroup
}

func startRouter(nodes map[string]*node) (*router, error) {
	members := cluster.NewMembership(0)
	for name, n := range nodes {
		if err := members.Join(name, n.addr, ""); err != nil {
			return nil, err
		}
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Members: members})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &router{rt: rt, addr: ln.Addr().String()}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		_ = h.rt.Serve(ln) // returns once Shutdown closes the listener
	}()
	return h, nil
}

func (h *router) stop() {
	h.rt.Shutdown()
	h.wg.Wait()
}

// identity is one client: its own keys, hence its own content-addressed
// session. mu keeps encryption serial (it consumes the engine's PRNG
// stream) and guards decryption with it.
type identity struct {
	eng  *core.Engine
	blob []byte
	id   string
	mu   sync.Mutex
}

// newIdentity generates the keys of client identity i and records the
// key-generation time. Identities are a fixed population, the same for
// every run seed, so run-to-run spread comes from the seeded inputs,
// arrivals and visit order rather than from which keys were drawn.
func newIdentity(r *run, i int) (*identity, error) {
	p := r.p
	p.Seed = uint64(i) + 1
	t0 := time.Now()
	eng, err := core.NewEngine(p)
	if err != nil {
		return nil, err
	}
	r.keygen = append(r.keygen, ms(time.Since(t0)))
	var blob bytes.Buffer
	if err := eng.WriteEvalKeys(&blob); err != nil {
		return nil, err
	}
	r.blobN = blob.Len()
	return &identity{eng: eng, blob: blob.Bytes(), id: serve.SessionID(blob.Bytes())}, nil
}

func (id *identity) encrypt(q *qnn.QNetwork, x *qnn.IntTensor) (*core.EncryptedInput, error) {
	id.mu.Lock()
	defer id.mu.Unlock()
	//lint:holdok mu serializes the engine's encryption PRNG stream; the encryption is the critical section
	return id.eng.EncryptInput(q, x)
}

func (id *identity) decrypt(out *core.EncryptedLogits) ([]int64, error) {
	id.mu.Lock()
	defer id.mu.Unlock()
	//lint:holdok decryption shares the client engine with encryption; mu keeps the engine single-caller
	return id.eng.DecryptLogits(out)
}

// inferer is the request half of serve/client.Client and
// serve/client.Reliable.
type inferer interface {
	InferEncrypted(model *qnn.QNetwork, in *core.EncryptedInput, deadline time.Duration) (*core.EncryptedLogits, error)
}

// remote sends one already-encrypted request through c, decrypts and
// checks the reply, and records it. due is when the request was due
// (open loop) or when the call started (closed loop); latency runs from
// due to the decrypted logits. root is the request's span.
func remote(tr *tracer, root, req int64, rec *recorder, c inferer, id *identity,
	q *qnn.QNetwork, x *qnn.IntTensor, in *core.EncryptedInput, due time.Time) {
	s := tr.begin("serve.infer", root, req)
	t0 := time.Now()
	out, err := c.InferEncrypted(q, in, 0)
	rtt := time.Since(t0)
	tr.end(s)
	var logits []int64
	if err == nil {
		s = tr.begin("core.decrypt", root, req)
		t1 := time.Now()
		logits, err = id.decrypt(out)
		dec := time.Since(t1)
		tr.end(s)
		rec.do(func(ph *phase) { ph.dec = append(ph.dec, ms(dec)) })
	}
	done := time.Now()
	tr.end(root)
	if err != nil {
		return
	}
	s = tr.begin("check", 0, req)
	ok, cerr := rec.ph.chk.check(q, x, logits)
	tr.end(s)
	rec.do(func(ph *phase) {
		ph.completed++
		if !ok || cerr != nil {
			ph.checkErrs++
		}
		ph.addLat(due, ms(done.Sub(due)))
		ph.rtt = append(ph.rtt, ms(rtt))
	})
}

// wireBytes is the ASV1 payload size of one request and its reply for q:
// the encrypted input plus the encrypted logits, both fixed by the model
// and parameters. The client engine holds evaluation keys too, so it
// produces a reply of the server's shape locally.
func wireBytes(id *identity, q *qnn.QNetwork, x *qnn.IntTensor) (int64, error) {
	in, err := id.encrypt(q, x)
	if err != nil {
		return 0, err
	}
	var buf bytes.Buffer
	if err := id.eng.WriteEncryptedInput(in, &buf); err != nil {
		return 0, err
	}
	out, err := id.eng.EvaluateEncrypted(q, in)
	if err != nil {
		return 0, err
	}
	if err := id.eng.WriteEncryptedLogits(out, &buf); err != nil {
		return 0, err
	}
	return int64(buf.Len()), nil
}

// quiesce waits until the server counters account for every reply the
// clients received: completed equals the requests answered, and the
// batch accounting has caught up with it. Counters are read only after
// that, so a snapshot taken between a reply and its batch record never
// reaches a metric.
func quiesce(read func() (completed, images uint64), want uint64) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, im := read()
		if c >= want && im >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("counters did not settle: completed %d, images %d, want %d", c, im, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// setServeLayers records the serve, registry and store layer metrics
// from two snapshots of one node (or the sum of several).
func setServeLayers(m metricSet, a, b serve.Snapshot) {
	batches := float64(b.Batches - a.Batches)
	images := float64(b.Images - a.Images)
	evalMS := b.EvalTimeMS - a.EvalTimeMS
	if batches > 0 {
		m.set("serve.batch_eval_ms", evalMS/batches, "ms")
		m.set("serve.mean_batch", images/batches, "count")
	}
	if images > 0 {
		m.set("core.evaluate_ms", evalMS/images, "ms")
	}
	for i, bb := range b.BatchSizeHist {
		n := bb.Count
		if i < len(a.BatchSizeHist) {
			n -= a.BatchSizeHist[i].Count
		}
		name := "serve.batch_hist.over"
		if bb.LE > 0 {
			name = fmt.Sprintf("serve.batch_hist.le%d", bb.LE)
		}
		m.set(name, float64(n), "count")
	}
	m.set("serve.rejected_busy", float64(b.Requests.RejectedBusy-a.Requests.RejectedBusy), "count")
	m.set("serve.deadline_expired", float64(b.Requests.DeadlineExpired-a.Requests.DeadlineExpired), "count")
	m.set("serve.sessions.hot_hits", float64(b.Sessions.HotHits-a.Sessions.HotHits), "count")
	m.set("serve.sessions.cold_loads", float64(b.Sessions.ColdLoads-a.Sessions.ColdLoads), "count")
	m.set("serve.sessions.misses", float64(b.Sessions.Misses-a.Sessions.Misses), "count")
	m.set("serve.sessions.evictions", float64(b.Sessions.Evictions-a.Sessions.Evictions), "count")
	setOps(m, subOps(opsOf(b.Ops), opsOf(a.Ops)), int(images))
	if b.Store != nil {
		var sa serve.StoreSnapshot
		if a.Store != nil {
			sa = *a.Store
		}
		sb := *b.Store
		m.set("store.puts", float64(sb.Puts-sa.Puts), "count")
		m.set("store.loads", float64(sb.Loads-sa.Loads), "count")
		m.set("store.spills", float64(sb.Spills-sa.Spills), "count")
		m.set("store.compactions", float64(sb.Compactions-sa.Compactions), "count")
		m.set("store.evictions", float64(sb.Evictions-sa.Evictions), "count")
		m.set("store.disk_bytes", float64(sb.DiskBytes), "bytes")
	}
}

// sumSnapshots adds the counters of several nodes' snapshots.
func sumSnapshots(snaps []serve.Snapshot) serve.Snapshot {
	var s serve.Snapshot
	s.Store = &serve.StoreSnapshot{}
	for _, x := range snaps {
		s.Requests.Completed += x.Requests.Completed
		s.Requests.RejectedBusy += x.Requests.RejectedBusy
		s.Requests.DeadlineExpired += x.Requests.DeadlineExpired
		s.Batches += x.Batches
		s.Images += x.Images
		s.EvalTimeMS += x.EvalTimeMS
		if len(s.BatchSizeHist) == 0 {
			s.BatchSizeHist = make([]serve.BatchBucket, len(x.BatchSizeHist))
		}
		for i, bb := range x.BatchSizeHist {
			if i < len(s.BatchSizeHist) {
				s.BatchSizeHist[i].LE = bb.LE
				s.BatchSizeHist[i].Count += bb.Count
			}
		}
		s.Sessions.HotHits += x.Sessions.HotHits
		s.Sessions.ColdLoads += x.Sessions.ColdLoads
		s.Sessions.Misses += x.Sessions.Misses
		s.Sessions.Evictions += x.Sessions.Evictions
		s.Ops.CMult += x.Ops.CMult
		s.Ops.SMult += x.Ops.SMult
		s.Ops.PMult += x.Ops.PMult
		s.Ops.Packs += x.Ops.Packs
		s.Ops.FBSCalls += x.Ops.FBSCalls
		s.Ops.S2CCalls += x.Ops.S2CCalls
		s.Ops.Extractions += x.Ops.Extractions
		s.Ops.KeySwitches += x.Ops.KeySwitches
		if x.Store != nil {
			s.Store.Puts += x.Store.Puts
			s.Store.Loads += x.Store.Loads
			s.Store.Spills += x.Store.Spills
			s.Store.Compactions += x.Store.Compactions
			s.Store.Evictions += x.Store.Evictions
			s.Store.DiskBytes += x.Store.DiskBytes
		}
	}
	return s
}

func opsOf(o serve.OpStatsSnapshot) core.OpStats {
	return core.OpStats{PMult: o.PMult, HAdd: o.HAdd, CMult: o.CMult, SMult: o.SMult, Packs: o.Packs,
		FBSCalls: o.FBSCalls, S2CCalls: o.S2CCalls, Extractions: o.Extractions, KeySwitches: o.KeySwitches, LWEAdds: o.LWEAdds}
}
