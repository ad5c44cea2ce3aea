package main

import (
	"math/rand/v2"
	"sync"
	"time"

	"athena/internal/qnn"
	"athena/internal/serve"
	"athena/internal/serve/client"
)

// session_churn: a pool of client identities, each with its own keys
// and therefore its own content-addressed session, visits a two-node
// cluster through the router. Each node's registry holds about two
// sessions in memory and its store about a quarter of the pool on disk
// (half the population across both nodes), so Zipf-skewed popularity
// mixes hot attaches, cold loads from disk, and uploads of keys the disk
// cap evicted. Batching does almost nothing here.
const (
	poolSize     = 12
	zipfS        = 1.2
	churnCallers = 2
	infersPerOp  = 4
)

type churn struct {
	r      *run
	q      *qnn.QNetwork
	nodes  map[string]*node
	rt     *router
	ids    []*identity
	phase  int
	cursor [churnCallers]int // position in each caller's identity sequence

	base               serve.Snapshot
	retries, reuploads uint64 // Reliable.Counters summed over ops
}

func (w *churn) setup() error {
	r := w.r
	w.q = serve.DemoNet()
	for i := 0; i < poolSize; i++ {
		id, err := newIdentity(r, i)
		if err != nil {
			return err
		}
		w.ids = append(w.ids, id)
	}
	blob := int64(r.blobN)
	w.nodes = map[string]*node{}
	for _, name := range []string{"a", "b"} {
		n, err := startNode(r, 2*blob+blob/2, poolSize/4*blob+blob/2)
		if err != nil {
			return err
		}
		w.nodes[name] = n
	}
	var err error
	if w.rt, err = startRouter(w.nodes); err != nil {
		return err
	}
	w.base = w.snapshot()
	return nil
}

func (w *churn) snapshot() serve.Snapshot {
	snaps := make([]serve.Snapshot, 0, len(w.nodes))
	for _, n := range w.nodes {
		snaps = append(snaps, n.srv.Metrics())
	}
	return sumSnapshots(snaps)
}

func (w *churn) measure(d time.Duration, tr *tracer) (*phase, error) {
	r := w.r
	ph := newPhase(r.p.LWEDim)
	rec := &recorder{ph: ph}
	b0 := w.snapshot()
	var wg sync.WaitGroup
	var reqMu sync.Mutex
	var nextReq int64
	newReq := func() int64 {
		reqMu.Lock()
		defer reqMu.Unlock()
		nextReq++
		return nextReq
	}
	t0 := ph.start(d)
	deadline := t0.Add(d)
	for c := 0; c < churnCallers; c++ {
		seq := identitySequence(r.o.seed, c, poolSize, zipfS, w.cursor[c]+1<<14)
		rng := inputStream(r.o.seed, uint64(100+c+10*w.phase))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prev := time.Now()
			for time.Now().Before(deadline) {
				id := w.ids[seq[w.cursor[c]]]
				w.cursor[c]++
				start := time.Now()
				rec.do(func(ph *phase) { ph.lag = append(ph.lag, ms(start.Sub(prev))) })
				w.op(tr, newReq, rec, id, rng)
				prev = time.Now()
			}
		}(c)
	}
	wg.Wait()
	ph.stop(t0)
	w.phase++
	ph.offered = float64(ph.attempted) / ph.elapsed.Seconds()
	return ph, quiesce(func() (uint64, uint64) {
		s := w.snapshot()
		return s.Requests.Completed - b0.Requests.Completed, s.Images - b0.Images
	}, uint64(ph.completed))
}

// op is one client visit: DialReliable → attach (upload on NEED_KEYS) →
// infersPerOp requests → close. Session ready is dial → attached.
func (w *churn) op(tr *tracer, newReq func() int64, rec *recorder, id *identity, rng *rand.Rand) {
	r := w.r
	opID := newReq()
	root := tr.begin("op", 0, opID)
	defer tr.end(root)
	r.gate.acquire()
	defer r.gate.release()
	t0 := time.Now()
	s := tr.begin("client.dial", root, opID)
	rc, err := client.DialReliable(w.rt.addr, id.eng, client.ReliableOptions{})
	tr.end(s)
	if err == nil {
		s = tr.begin("client.attach", root, opID)
		err = rc.Attach(id.id)
		tr.end(s)
	}
	if err != nil {
		rec.do(func(ph *phase) { ph.attempted += infersPerOp })
		if rc != nil {
			_ = rc.Close() // the op already failed
		}
		return
	}
	ready := ms(time.Since(t0))
	rec.do(func(ph *phase) { ph.ready = append(ph.ready, ready) })
	for i := 0; i < infersPerOp; i++ {
		req := newReq()
		x := randomInput(w.q, rng)
		start := time.Now()
		rroot := tr.begin("request", root, req)
		s := tr.begin("core.encrypt", rroot, req)
		in, err := id.encrypt(w.q, x)
		enc := time.Since(start)
		tr.end(s)
		rec.do(func(ph *phase) {
			ph.attempted++
			ph.enc = append(ph.enc, ms(enc))
		})
		if err != nil {
			tr.end(rroot)
			continue
		}
		remote(tr, rroot, req, rec, rc, id, w.q, x, in, start)
	}
	retries, _, _, reuploads := rc.Counters()
	s = tr.begin("client.close", root, opID)
	_ = rc.Close() // every reply has arrived; nothing is pending
	tr.end(s)
	rec.do(func(ph *phase) {
		w.retries += retries
		w.reuploads += reuploads
	})
}

func (w *churn) layers(m metricSet) error {
	setServeLayers(m, w.base, w.snapshot())
	st := w.rt.rt.Stats()
	m.set("cluster.redirects", float64(st.Redirects), "count")
	m.set("cluster.need_keys", float64(st.NeedKeys), "count")
	m.set("cluster.backend_dials", float64(st.BackendDials), "count")
	m.set("cluster.backend_errors", float64(st.BackendErrors), "count")
	m.set("client.retries", float64(w.retries), "count")
	m.set("client.reuploads", float64(w.reuploads), "count")
	wb, err := wireBytes(w.ids[0], w.q, randomInput(w.q, inputStream(w.r.o.seed, 1<<21)))
	if err != nil {
		return err
	}
	m.set("serve.wire_bytes_per_req", float64(wb), "bytes")
	return nil
}

func (w *churn) close() {
	if w.rt != nil {
		w.rt.stop()
		w.rt = nil
	}
	for _, n := range w.nodes {
		n.stop()
	}
	w.nodes = nil
}
