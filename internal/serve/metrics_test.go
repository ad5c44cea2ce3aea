package serve

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
	"time"

	"athena/internal/core"
)

// TestSnapshotOpsKeys pins the wire form of the /metrics "ops" block:
// exactly the ten operation counters, under their established keys, with
// the recorded batch deltas summed into them.
func TestSnapshotOpsKeys(t *testing.T) {
	m := NewMetrics()
	m.recordBatch(2, time.Millisecond, core.OpStats{Packs: 2, LWEAdds: 5})
	m.recordBatch(1, time.Millisecond, core.OpStats{Packs: 1, KeySwitches: 32})
	blob, err := json.Marshal(m.Snapshot(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Ops map[string]int `json:"ops"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc.Ops))
	for k := range doc.Ops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := []string{"cmult", "extractions", "fbs_calls", "hadd", "key_switches",
		"lwe_adds", "packs", "pmult", "s2c_calls", "smult"}
	if strings.Join(keys, ",") != strings.Join(want, ",") {
		t.Fatalf("ops keys %v, want %v", keys, want)
	}
	if doc.Ops["packs"] != 3 || doc.Ops["lwe_adds"] != 5 || doc.Ops["key_switches"] != 32 {
		t.Fatalf("ops totals %v", doc.Ops)
	}
}
