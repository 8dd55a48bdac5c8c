package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"energysched/internal/core"
	"energysched/internal/jobs"
	"energysched/internal/server"
)

// TestRoutingKeyIsInstanceHash holds the router's keys to the
// backend's: for /v1/solve and /v1/jobs bodies and batch items, with
// the mapping given (keyed from the wire form) or omitted (keyed by
// building), the key is core.UnmarshalInstance(...).Hash(), and a
// job's ring key is the instance-hash prefix of the ID the backend
// issues for it.
func TestRoutingKeyIsInstanceHash(t *testing.T) {
	instances := map[string]string{
		"mapped": `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],
			"edges":[[0,2],[0,1],[0,2]],"processors":2,"mapping":[[0,1],[2]],
			"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":20}`,
		"list-scheduled": `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2},{"name":"c","weight":3}],
			"edges":[[0,1],[0,2]],"processors":2,
			"speedModel":{"kind":"continuous","fmin":0.1,"fmax":1},"deadline":20}`,
		"tri-crit mapped": `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],
			"edges":[[0,1]],"mapping":[[0,1]],
			"speedModel":{"kind":"vdd-hopping","levels":[1,0.4,0.7,0.4]},"deadline":30,
			"reliability":{"lambda0":1e-5,"d":3,"frel":0.8}}`,
		"tri-crit list-scheduled": `{"tasks":[{"name":"a","weight":1},{"name":"b","weight":2}],
			"edges":[[0,1]],"processors":1,
			"speedModel":{"kind":"incremental","fmin":0.2,"fmax":1,"delta":0.2},"deadline":30,
			"reliability":{"lambda0":1e-5,"d":3,"frel":0.8}}`,
	}
	srv := server.New(server.Config{StateDir: t.TempDir()})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.DrainJobs(ctx); err != nil {
			t.Error(err)
		}
	})
	h := srv.Handler()
	for name, inst := range instances {
		in, err := core.UnmarshalInstance([]byte(inst))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := in.Hash()
		solve := []byte(`{"instance":` + inst + `,"solver":"continuous-convex"}`)
		job := []byte(`{"instance":` + inst + `,"trials":64,"simSeed":3,"chunkSize":64}`)
		if got := routingKey("solve", solve); got != want {
			t.Errorf("%s: solve routingKey = %s, want %s", name, got, want)
		}
		if got := routingKey("jobs", job); got != want {
			t.Errorf("%s: jobs routingKey = %s, want %s", name, got, want)
		}
		if got := instanceKey(json.RawMessage(inst)); got != want {
			t.Errorf("%s: instanceKey = %s, want %s", name, got, want)
		}

		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/jobs", bytes.NewReader(job)))
		var v struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil || v.ID == "" {
			t.Fatalf("%s: job submit: status %d, body %s", name, rec.Code, rec.Body.Bytes())
		}
		if got := jobKey(v.ID); got != routingKey("jobs", job) || jobs.InstanceHashOfID(v.ID) != want {
			t.Errorf("%s: job ID %s keys %s, submit keyed %s", name, v.ID, got, routingKey("jobs", job))
		}
	}
}
