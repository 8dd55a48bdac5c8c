package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"energysched/internal/core"
	"energysched/internal/sim"
)

// checkSame accepts a body byte-identical to want: a solve-hot cache
// hit must return exactly the bytes its warm-up request computed.
func checkSame(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("body differs from the warm-up response (%d bytes, want %d)", len(got), len(want))
	}
	return nil
}

var wallTimeKey = []byte(`"wallTimeMs":`)

// stripWallTime returns body without the value of its "wallTimeMs"
// member, the one field that legitimately differs between two solves
// of the same instance (the rule clustersmoke uses).
func stripWallTime(body []byte) []byte {
	i := bytes.Index(body, wallTimeKey)
	if i < 0 {
		return body
	}
	j := i + len(wallTimeKey)
	end := bytes.IndexAny(body[j:], ",}")
	if end < 0 {
		return body
	}
	out := make([]byte, 0, len(body))
	out = append(out, body[:j]...)
	return append(out, body[j+end:]...)
}

// checkModuloWallTime accepts a body equal to the single-node answer
// wantStripped (already passed through stripWallTime) except for
// wallTimeMs.
func checkModuloWallTime(got, wantStripped []byte) error {
	if !bytes.Equal(stripWallTime(got), wantStripped) {
		return errors.New("body differs from the single-node answer beyond wallTimeMs")
	}
	return nil
}

// checkSolved accepts a /v1/solve body that rebuilds against its
// instance with a finite energy no lower than the result's own lower
// bound, and returns the rebuilt result.
func checkSolved(body []byte, in *core.Instance) (*core.Result, error) {
	res, err := core.UnmarshalResult(body, in)
	if err != nil {
		return nil, err
	}
	if math.IsNaN(res.Energy) || math.IsInf(res.Energy, 0) || res.Energy <= 0 {
		return nil, fmt.Errorf("energy %v is not finite and positive", res.Energy)
	}
	if res.Energy < res.LowerBound*(1-1e-9) {
		return nil, fmt.Errorf("energy %v is below its lower bound %v", res.Energy, res.LowerBound)
	}
	return res, nil
}

// sameEnergy accepts two energies equal to 1e-9 relative.
func sameEnergy(got, want float64) error {
	if math.Abs(got-want) > 1e-9*math.Abs(want) {
		return fmt.Errorf("energy %v differs from the direct solve's %v", got, want)
	}
	return nil
}

// campaignEnvelope is the part of a /v1/simulate or finished job body
// the checks read.
type campaignEnvelope struct {
	Result   json.RawMessage `json:"result"`
	Campaign json.RawMessage `json:"campaign"`
}

func parseCampaign(body []byte) (*campaignEnvelope, error) {
	var env campaignEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("parsing campaign response: %w", err)
	}
	if len(env.Result) == 0 || len(env.Campaign) == 0 {
		return nil, errors.New("campaign response lacks its result or campaign block")
	}
	return &env, nil
}

// checkCampaignHeader is the cheap per-request simulate check: the
// campaign block parses and ran the requested trials with the
// requested seed.
func checkCampaignHeader(body []byte, trials int, seed int64) error {
	env, err := parseCampaign(body)
	if err != nil {
		return err
	}
	var head struct {
		Trials int   `json:"trials"`
		Seed   int64 `json:"seed"`
	}
	if err := json.Unmarshal(env.Campaign, &head); err != nil {
		return fmt.Errorf("parsing campaign block: %w", err)
	}
	if head.Trials != trials || head.Seed != seed {
		return fmt.Errorf("campaign ran %d trials with seed %d, want %d with seed %d", head.Trials, head.Seed, trials, seed)
	}
	return nil
}

// checkCampaignBlock accepts a body whose campaign block is
// byte-identical to the marshalled direct campaign want.
func checkCampaignBlock(body []byte, want *sim.Campaign) error {
	env, err := parseCampaign(body)
	if err != nil {
		return err
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(env.Campaign, wantJSON) {
		return errors.New("campaign block differs from the direct campaign")
	}
	return nil
}
