package main

import (
	"math"
	"testing"
	"time"
)

// TestShortTracedRun drives solve-hot and cluster-hot end to end for a
// moment, traced, and checks that every answer passes, the guards hold
// and every per-layer metric comes out finite.
func TestShortTracedRun(t *testing.T) {
	for _, name := range []string{wlSolveHot, wlClusterHot} {
		rec := newRecorder()
		b, err := setup(name, 3, rec)
		if err != nil {
			t.Fatalf("%s: set-up: %v", name, err)
		}
		ph, res, problems, err := phase(b, 200*time.Millisecond)
		if err != nil {
			b.close()
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %+v, problems %v", name, res, problems)
		}
		layers, err := b.layerPasses(ph, ph)
		b.close()
		if err != nil {
			t.Fatalf("%s: layer passes: %v", name, err)
		}
		for _, d := range perLayer {
			v, ok := layers[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: per-layer %s = %v (present %v)", name, d.name, v, ok)
			}
		}
		if layers["server.handler_us"] <= 0 || layers["client.transport_us"] <= 0 {
			t.Errorf("%s: spans gave handler %v µs, transport %v µs", name, layers["server.handler_us"], layers["client.transport_us"])
		}
		if name == wlClusterHot && layers["router.self_us"] <= 0 {
			t.Errorf("cluster-hot: router self time %v µs", layers["router.self_us"])
		}
	}
}
