package main

import (
	"bytes"
	"fmt"
	"testing"
)

// TestInputsAreSeedDeterministic: the same seed gives byte-identical
// inputs for every workload, and another seed gives different ones.
func TestInputsAreSeedDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generatedInputs(name, 7, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := generatedInputs(name, 7, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := generatedInputs(name, 8, 30)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a) == 0 || len(a) != len(b) || len(a) != len(c) {
			t.Fatalf("%s: %d, %d and %d inputs", name, len(a), len(b), len(c))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s: input %d differs between two generations with seed 7", name, i)
			}
			if bytes.Equal(a[i], c[i]) {
				t.Errorf("%s: input %d is the same for seeds 7 and 8", name, i)
			}
		}
	}
}

// TestColdInstancesCoverEveryModel: the solve-cold stream cycles the
// three speed models, so each solver serves a third of it.
func TestColdInstancesCoverEveryModel(t *testing.T) {
	insts, err := coldInstances(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, kind := range []string{`"continuous"`, `"vdd-hopping"`, `"discrete"`} {
		for _, k := range []int{i, i + 3} {
			if !bytes.Contains(insts[k], []byte(kind)) {
				t.Errorf("instance %d has no %s speed model", k, kind)
			}
		}
	}
}

// generatedInputs lists the request bodies a workload sends for seed,
// the first count of them for the unbounded streams, built from the
// same helpers the workloads' set-up uses.
func generatedInputs(name string, seed int64, count int) ([][]byte, error) {
	switch name {
	case wlSolveHot, wlClusterHot:
		insts, err := hotInstances(seed)
		if err != nil {
			return nil, err
		}
		out := make([][]byte, len(insts))
		for i, inst := range insts {
			out[i] = solveBody(inst)
		}
		return out, nil
	case wlSolveCold:
		insts, err := coldInstances(seed, count)
		if err != nil {
			return nil, err
		}
		for i, inst := range insts {
			insts[i] = solveBody(inst)
		}
		return insts, nil
	case wlCampaign:
		pool, job, err := campaignInstances(seed)
		if err != nil {
			return nil, err
		}
		var out [][]byte
		for k := 0; k < count; k++ {
			out = append(out, campaignBody(pool[k%len(pool)], simTrials, simSeedAt(seed, k)))
		}
		for j := 0; j < jobsPerRun; j++ {
			out = append(out, campaignBody(job, jobTrials, jobSeedAt(seed, j)))
		}
		return out, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
