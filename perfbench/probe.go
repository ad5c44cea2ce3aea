package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"time"

	"athena/internal/serve"
	"athena/internal/serve/client"
	"athena/internal/store"
)

// probeLayers measures, in every traced run, the layers a workload may
// not drive itself, so each per-layer metric is a measurement on every
// workload: the store timed from outside on a 2 MB blob, and a one-node
// cluster that times upload, attach and paired router-vs-direct requests
// on one session (cluster.hop_ms). A workload that drives a layer
// overwrites the probe's values with its own in layers().
func probeLayers(r *run, m metricSet) error {
	if err := probeStore(r, m); err != nil {
		return err
	}
	return probeCluster(r, m)
}

const probeBlobs = 5

func probeStore(r *run, m metricSet) error {
	dir, err := os.MkdirTemp(r.tmp, "store-*")
	if err != nil {
		return err
	}
	st, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	rng := rand.New(rand.NewPCG(r.o.seed, 0x5703))
	blob := make([]byte, 2<<20)
	var puts, loads []float64
	for i := 0; i < probeBlobs; i++ {
		for j := range blob {
			blob[j] = byte(rng.Uint32())
		}
		t0 := time.Now()
		if err := st.Put(fmt.Sprintf("probe-%d", i), blob); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t0)))
	}
	// Spill so every load is a segment read, the registry's cold path.
	if err := st.Flush(); err != nil {
		return err
	}
	for i := 0; i < probeBlobs; i++ {
		t0 := time.Now()
		b, err := st.Load(fmt.Sprintf("probe-%d", i))
		if err != nil {
			return err
		}
		err = b.Verify()
		_ = b.Close() // read-only handle
		if err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(t0)))
	}
	m.set("store.put_ms", quantile(puts, 0.5), "ms")
	m.set("store.load_ms", quantile(loads, 0.5), "ms")
	return nil
}

const probePairs = 8

func probeCluster(r *run, m metricSet) error {
	n, err := startNode(r, 0, 0)
	if err != nil {
		return err
	}
	defer n.stop()
	rt, err := startRouter(map[string]*node{"probe": n})
	if err != nil {
		return err
	}
	defer rt.stop()
	id, err := newIdentity(r, poolSize)
	if err != nil {
		return err
	}
	q := serve.DemoNet()
	base := n.srv.Metrics()

	r.gate.acquire()
	defer r.gate.release()
	t0 := time.Now()
	direct, err := client.Dial(n.addr, id.eng, client.Options{})
	if err != nil {
		return err
	}
	defer direct.Close()
	sess, err := direct.OpenSession()
	if err != nil {
		return err
	}
	m.set("serve.open_ms", ms(time.Since(t0)), "ms")

	r.gate.acquire()
	defer r.gate.release()
	t0 = time.Now()
	routed, err := client.Dial(rt.addr, id.eng, client.Options{})
	if err != nil {
		return err
	}
	defer routed.Close()
	if err := routed.Attach(sess); err != nil {
		return err
	}
	m.set("serve.attach_ms", ms(time.Since(t0)), "ms")

	// Paired requests replay one ciphertext over both paths, alternating
	// which goes first; the first pair warms the LUT caches and the
	// router's backend connection and is not counted.
	rng := inputStream(r.o.seed, 1<<22)
	var hops, rtts []float64
	for i := 0; i <= probePairs; i++ {
		in, err := id.encrypt(q, randomInput(q, rng))
		if err != nil {
			return err
		}
		var dRTT, rRTT time.Duration
		for k := 0; k < 2; k++ {
			c, dst := inferer(direct), &dRTT
			if (i+k)%2 == 1 {
				c, dst = routed, &rRTT
			}
			t := time.Now()
			if _, err := c.InferEncrypted(q, in, 0); err != nil {
				return err
			}
			*dst = time.Since(t)
		}
		if i > 0 {
			hops = append(hops, ms(rRTT-dRTT))
			rtts = append(rtts, ms(dRTT))
		}
	}
	m.set("cluster.hop_ms", quantile(hops, 0.5), "ms")
	m.set("serve.rtt_ms_p50", quantile(rtts, 0.5), "ms")
	wb, err := wireBytes(id, q, randomInput(q, rng))
	if err != nil {
		return err
	}
	m.set("serve.wire_bytes_per_req", float64(wb), "bytes")

	want := uint64(2 * (probePairs + 1))
	if err := quiesce(func() (uint64, uint64) {
		s := n.srv.Metrics()
		return s.Requests.Completed - base.Requests.Completed, s.Images - base.Images
	}, want); err != nil {
		return err
	}
	snap := n.srv.Metrics()
	setServeLayers(m, base, snap)
	if bt := snap.Batches - base.Batches; bt > 0 {
		m.set("serve.wait_ms", mean(rtts)-(snap.EvalTimeMS-base.EvalTimeMS)/float64(bt), "ms")
	}
	st := rt.rt.Stats()
	m.set("cluster.redirects", float64(st.Redirects), "count")
	m.set("cluster.need_keys", float64(st.NeedKeys), "count")
	m.set("cluster.backend_dials", float64(st.BackendDials), "count")
	m.set("cluster.backend_errors", float64(st.BackendErrors), "count")
	m.set("client.retries", 0, "count")
	m.set("client.reuploads", 0, "count")
	return nil
}
