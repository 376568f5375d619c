package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestSubmitRefusesCompoundedOverflow: a spec whose rush hour compounds a
// link's latency factor past +Inf within the round budget is refused at
// submission with a 400 that names the event, link and round.
func TestSubmitRefusesCompoundedOverflow(t *testing.T) {
	_, ts := newServer(t, t.TempDir(), nil)
	const spec = `{"version":2,"name":"probe","instance":{"family":"linear-singletons","params":{"m":4,"n":64,"maxSlope":2}},"dynamics":{"kind":"fluid-imitation"},"rounds":6,"reps":2,"seed":1,"metrics":["mean_final_potential"],"events":[{"round":1,"every":1,"kind":"latency-scale","resource":0,"factor":1e200}]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "event 0 (latency-scale) at round 2: link 0") {
		t.Fatalf("POST /v1/jobs: %s (%s), want 400 naming the event", resp.Status, body)
	}
}
