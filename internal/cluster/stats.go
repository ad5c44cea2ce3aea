package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"time"

	"athena/internal/serve"
)

// NodeStatus is one node's row in the cluster metrics document.
type NodeStatus struct {
	Node
	Reachable bool            `json:"reachable"`
	Error     string          `json:"error,omitempty"`
	Snapshot  *serve.Snapshot `json:"snapshot,omitempty"`
}

// ClusterSnapshot is the aggregated cluster metrics document. The
// embedded serve.Snapshot holds the cluster-wide sums in exactly the
// single-node JSON shape, so anything that parses a node's /metrics —
// including the Go client's Stats call through the router — parses the
// cluster's unchanged. Per-node detail and the router's own counters
// ride alongside under "cluster".
type ClusterSnapshot struct {
	serve.Snapshot
	Cluster struct {
		Epoch  uint64       `json:"epoch"`
		Nodes  []NodeStatus `json:"nodes"`
		Router *RouterStats `json:"router,omitempty"`
	} `json:"cluster"`
}

// GatherClusterStats queries every member node over ASV1 for its
// metrics snapshot and sums them. Unreachable nodes appear with their
// error instead of failing the whole document. rs, when non-nil, is
// included as the router counter block.
func GatherClusterStats(m *Membership, rs *RouterStats, timeout time.Duration) ClusterSnapshot {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	var out ClusterSnapshot
	nodes, epoch := m.Snapshot()
	out.Cluster.Epoch = epoch
	out.Cluster.Router = rs

	type res struct {
		i    int
		snap *serve.Snapshot
		err  error
	}
	ch := make(chan res, len(nodes))
	for i, n := range nodes {
		go func(i int, n Node) {
			snap, err := fetchNodeSnapshot(n.Addr, timeout)
			ch <- res{i: i, snap: snap, err: err}
		}(i, n)
	}
	rows := make([]NodeStatus, len(nodes))
	for range nodes {
		r := <-ch
		st := NodeStatus{Node: nodes[r.i]}
		if r.err != nil {
			st.Error = r.err.Error()
		} else {
			st.Reachable = true
			st.Snapshot = r.snap
			mergeSnapshot(&out.Snapshot, r.snap)
		}
		rows[r.i] = st
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	out.Cluster.Nodes = rows
	return out
}

// fetchNodeSnapshot performs one ASV1 stats round-trip against a node.
func fetchNodeSnapshot(addr string, timeout time.Duration) (*serve.Snapshot, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if err := serve.WriteFrame(conn, serve.FrameStats, nil); err != nil {
		return nil, err
	}
	typ, payload, err := serve.ReadFrame(conn, serve.DefaultMaxFrame)
	if err != nil {
		return nil, err
	}
	if typ != serve.FrameStatsReply {
		return nil, fmt.Errorf("cluster: unexpected frame %d to stats request", typ)
	}
	var snap serve.Snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("cluster: undecodable stats reply: %w", err)
	}
	return &snap, nil
}

// mergeSnapshot adds src's counters into dst, recomputing the derived
// fields (mean batch size) from the summed totals.
func mergeSnapshot(dst, src *serve.Snapshot) {
	dst.Requests.Accepted += src.Requests.Accepted
	dst.Requests.Completed += src.Requests.Completed
	dst.Requests.RejectedBusy += src.Requests.RejectedBusy
	dst.Requests.RateLimited += src.Requests.RateLimited
	dst.Requests.DeadlineExpired += src.Requests.DeadlineExpired
	dst.Requests.Failed += src.Requests.Failed
	dst.Connections += src.Connections
	dst.QueueDepth += src.QueueDepth
	dst.InflightBatches += src.InflightBatches
	dst.Batches += src.Batches
	dst.Images += src.Images
	if dst.Batches > 0 {
		dst.MeanBatchSize = float64(dst.Images) / float64(dst.Batches)
	}
	mergeHist(dst, src)
	dst.EvalTimeMS += src.EvalTimeMS

	dst.Ops = dst.Ops.Add(src.Ops)

	dst.Sessions.Count += src.Sessions.Count
	dst.Sessions.Bytes += src.Sessions.Bytes
	dst.Sessions.CapBytes += src.Sessions.CapBytes
	dst.Sessions.Evictions += src.Sessions.Evictions
	dst.Sessions.Opened += src.Sessions.Opened
	dst.Sessions.HotHits += src.Sessions.HotHits
	dst.Sessions.ColdLoads += src.Sessions.ColdLoads
	dst.Sessions.Misses += src.Sessions.Misses

	if src.Store != nil {
		if dst.Store == nil {
			dst.Store = &serve.StoreSnapshot{}
		}
		dst.Store.Entries += src.Store.Entries
		dst.Store.MemBytes += src.Store.MemBytes
		dst.Store.WALBytes += src.Store.WALBytes
		dst.Store.DiskBytes += src.Store.DiskBytes
		dst.Store.Segments += src.Store.Segments
		dst.Store.Puts += src.Store.Puts
		dst.Store.Loads += src.Store.Loads
		dst.Store.Spills += src.Store.Spills
		dst.Store.Compactions += src.Store.Compactions
		dst.Store.Evictions += src.Store.Evictions
		dst.Store.RecoveredEntries += src.Store.RecoveredEntries
		dst.Store.WALDroppedBytes += src.Store.WALDroppedBytes
		dst.Store.QuarantinedSegments += src.Store.QuarantinedSegments
	}
}

// mergeHist adds src's batch-size histogram into dst's. Buckets come
// from the same server code, so shapes match; a mismatch (mixed
// versions) keeps dst's shape and drops what cannot be aligned.
func mergeHist(dst, src *serve.Snapshot) {
	if len(dst.BatchSizeHist) == 0 {
		dst.BatchSizeHist = append([]serve.BatchBucket(nil), src.BatchSizeHist...)
		return
	}
	if len(dst.BatchSizeHist) != len(src.BatchSizeHist) {
		return
	}
	for i := range dst.BatchSizeHist {
		if dst.BatchSizeHist[i].LE != src.BatchSizeHist[i].LE {
			return
		}
	}
	for i := range dst.BatchSizeHist {
		dst.BatchSizeHist[i].Count += src.BatchSizeHist[i].Count
	}
}

// aggregateStatsJSON is the router's FrameStats answer: the aggregated
// cluster document as JSON.
func (r *Router) aggregateStatsJSON() ([]byte, error) {
	rs := r.Stats()
	snap := GatherClusterStats(r.cfg.Members, &rs, r.cfg.CtrlTimeout)
	return json.Marshal(snap)
}
