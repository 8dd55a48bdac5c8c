package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"energysched/internal/core"
	"energysched/internal/sim"
)

// solvedFixture returns a solve-hot instance and its MarshalResult
// body, the bytes a /v1/solve response carries.
func solvedFixture(t *testing.T) (*core.Instance, []byte) {
	t.Helper()
	insts, err := hotInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.UnmarshalInstance(insts[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	body, err := core.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	return in, body
}

// corrupt returns body with the first occurrence of old replaced.
func corrupt(t *testing.T, body []byte, old, new string) []byte {
	t.Helper()
	if !bytes.Contains(body, []byte(old)) {
		t.Fatalf("fixture has no %q to corrupt", old)
	}
	return bytes.Replace(body, []byte(old), []byte(new), 1)
}

func TestChecksRejectCorruptedSolveBodies(t *testing.T) {
	in, body := solvedFixture(t)
	var doc struct {
		Energy float64 `json:"energy"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	energy, _ := json.Marshal(doc.Energy)
	wrongEnergy := corrupt(t, body, `"energy": `+string(energy), `"energy": 1e-9`)
	truncated := body[:len(body)/2]
	renamed := corrupt(t, body, `"name": "`, `"name": "x`)

	if err := checkSame(body, body); err != nil {
		t.Errorf("checkSame rejected identical bytes: %v", err)
	}
	for name, bad := range map[string][]byte{"energy": wrongEnergy, "truncated": truncated, "renamed": renamed} {
		if checkSame(bad, body) == nil {
			t.Errorf("checkSame accepted the %s corruption", name)
		}
		if checkModuloWallTime(bad, stripWallTime(body)) == nil {
			t.Errorf("checkModuloWallTime accepted the %s corruption", name)
		}
		if _, err := checkSolved(bad, in); err == nil {
			t.Errorf("checkSolved accepted the %s corruption", name)
		}
	}

	if _, err := checkSolved(body, in); err != nil {
		t.Errorf("checkSolved rejected a correct body: %v", err)
	}
	otherWallTime := corrupt(t, body, `"wallTimeMs": `, `"wallTimeMs": 12345`)
	if err := checkModuloWallTime(otherWallTime, stripWallTime(body)); err != nil {
		t.Errorf("checkModuloWallTime rejected a body differing only in wallTimeMs: %v", err)
	}
	if sameEnergy(doc.Energy*(1+1e-6), doc.Energy) == nil {
		t.Error("sameEnergy accepted a 1e-6 relative difference")
	}
}

func TestChecksRejectCorruptedCampaignBodies(t *testing.T) {
	pool, _, err := campaignInstances(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := core.UnmarshalInstance(pool[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sim.RunCampaign(context.Background(), in, res.Schedule, sim.CampaignOptions{Trials: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := core.MarshalResult(res)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"result": json.RawMessage(resJSON), "campaign": camp})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCampaignBlock(body, camp); err != nil {
		t.Fatalf("checkCampaignBlock rejected the direct campaign: %v", err)
	}
	if err := checkCampaignHeader(body, 500, 9); err != nil {
		t.Fatalf("checkCampaignHeader rejected a correct body: %v", err)
	}
	successes := `"successes":` + jsonNumber(t, camp.Successes)
	bad := corrupt(t, body, successes, `"successes":`+jsonNumber(t, camp.Successes+1))
	if checkCampaignBlock(bad, camp) == nil {
		t.Error("checkCampaignBlock accepted a changed success count")
	}
	if checkCampaignHeader(body, 500, 10) == nil {
		t.Error("checkCampaignHeader accepted a campaign run with another seed")
	}
	if checkCampaignHeader(body[:len(body)-1], 500, 9) == nil {
		t.Error("checkCampaignHeader accepted a truncated body")
	}
}

func jsonNumber(t *testing.T, v int) string {
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
