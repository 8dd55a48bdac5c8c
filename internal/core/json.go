package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"energysched/internal/dag"
	"energysched/internal/listsched"
	"energysched/internal/model"
	"energysched/internal/platform"
	"energysched/internal/schedule"
)

// WireInstance is the JSON form of an Instance, as files and request
// bodies carry it. Decoding one checks nothing: Build turns it into a
// validated Instance, and Key derives the instance's Hash from the
// wire form alone, so a cache lookup need not build the instance.
type WireInstance struct {
	Tasks       []taskJSON `json:"tasks"`
	Edges       [][2]int   `json:"edges"`
	Processors  int        `json:"processors"`
	Mapping     [][]int    `json:"mapping,omitempty"`
	SpeedModel  speedJSON  `json:"speedModel"`
	Deadline    float64    `json:"deadline"`
	Reliability *relJSON   `json:"reliability,omitempty"`
}

type taskJSON struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
}

type speedJSON struct {
	Kind   string    `json:"kind"` // continuous | discrete | vdd-hopping | incremental
	FMin   float64   `json:"fmin,omitempty"`
	FMax   float64   `json:"fmax,omitempty"`
	Levels []float64 `json:"levels,omitempty"`
	Delta  float64   `json:"delta,omitempty"`
}

// model builds the speed model through the model package's
// constructors, which sort and deduplicate levels and materialize the
// incremental grid.
func (s *speedJSON) model() (model.SpeedModel, error) {
	switch s.Kind {
	case "continuous":
		return model.NewContinuous(s.FMin, s.FMax)
	case "discrete":
		return model.NewDiscrete(s.Levels)
	case "vdd-hopping":
		return model.NewVddHopping(s.Levels)
	case "incremental":
		return model.NewIncremental(s.FMin, s.FMax, s.Delta)
	default:
		return model.SpeedModel{}, fmt.Errorf("core: unknown speed model kind %q", s.Kind)
	}
}

type relJSON struct {
	Lambda0     float64 `json:"lambda0"`
	Sensitivity float64 `json:"d"`
	FRel        float64 `json:"frel"`
}

// MarshalInstance serializes an instance to JSON.
func MarshalInstance(in *Instance) ([]byte, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	j := WireInstance{
		Processors: in.Mapping.P,
		Deadline:   in.Deadline,
	}
	for i := 0; i < in.Graph.N(); i++ {
		t := in.Graph.Task(i)
		j.Tasks = append(j.Tasks, taskJSON{Name: t.Name, Weight: t.Weight})
	}
	for _, e := range in.Graph.Edges() {
		j.Edges = append(j.Edges, e)
	}
	j.Mapping = make([][]int, in.Mapping.P)
	for q := range in.Mapping.Order {
		j.Mapping[q] = append([]int{}, in.Mapping.Order[q]...)
	}
	switch in.Speed.Kind {
	case model.Continuous:
		j.SpeedModel = speedJSON{Kind: "continuous", FMin: in.Speed.FMin, FMax: in.Speed.FMax}
	case model.Discrete:
		j.SpeedModel = speedJSON{Kind: "discrete", Levels: in.Speed.Levels}
	case model.VddHopping:
		j.SpeedModel = speedJSON{Kind: "vdd-hopping", Levels: in.Speed.Levels}
	case model.Incremental:
		j.SpeedModel = speedJSON{Kind: "incremental", FMin: in.Speed.FMin, FMax: in.Speed.FMax, Delta: in.Speed.Delta}
	default:
		return nil, fmt.Errorf("core: unknown speed kind %v", in.Speed.Kind)
	}
	if in.Rel != nil {
		j.Reliability = &relJSON{Lambda0: in.Rel.Lambda0, Sensitivity: in.Rel.Sensitivity, FRel: in.FRel}
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalInstance parses an instance from JSON: one decode into a
// WireInstance, then Build.
func UnmarshalInstance(data []byte) (*Instance, error) {
	var j WireInstance
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return j.Build()
}

// Build constructs and validates the instance. When "mapping" is
// omitted, the tasks are mapped with critical-path list scheduling
// onto "processors" processors (the coupling the paper recommends).
func (j *WireInstance) Build() (*Instance, error) {
	if len(j.Tasks) == 0 {
		return nil, errors.New("core: instance has no tasks")
	}
	g := dag.New()
	for _, t := range j.Tasks {
		g.AddTask(t.Name, t.Weight)
	}
	for _, e := range j.Edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	var mp *platform.Mapping
	if len(j.Mapping) > 0 {
		if j.Processors > 0 && j.Processors != len(j.Mapping) {
			return nil, fmt.Errorf("core: \"processors\" is %d but \"mapping\" lists %d processors", j.Processors, len(j.Mapping))
		}
		mp = platform.NewMapping(len(j.Mapping), g.N())
		for q, order := range j.Mapping {
			for _, t := range order {
				if err := mp.Assign(t, q); err != nil {
					return nil, err
				}
			}
		}
	} else {
		if j.Processors <= 0 {
			return nil, fmt.Errorf("core: \"processors\" must be ≥ 1, got %d", j.Processors)
		}
		res, err := listsched.CriticalPath(g, j.Processors)
		if err != nil {
			return nil, err
		}
		mp = res.Mapping
	}
	sm, err := j.SpeedModel.model()
	if err != nil {
		return nil, err
	}
	in := &Instance{Graph: g, Mapping: mp, Speed: sm, Deadline: j.Deadline}
	if j.Reliability != nil {
		in.Rel = j.Reliability.model(sm)
		in.FRel = j.Reliability.FRel
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return in, nil
}

// model returns the reliability constraints; their speed bounds are
// the speed model's.
func (r *relJSON) model(sm model.SpeedModel) *model.Reliability {
	return &model.Reliability{
		Lambda0:     r.Lambda0,
		Sensitivity: r.Sensitivity,
		FMin:        sm.FMin,
		FMax:        sm.FMax,
	}
}

// Key returns the Hash that Build().Hash() would return, without
// building the instance, and ok = false when the wire form alone
// cannot tell:
//   - "mapping" is omitted or empty, so the hashed mapping is the one
//     list scheduling derives;
//   - a non-zero "processors" disagrees with len(mapping), which Build
//     rejects although "processors" is not part of the digest;
//   - the speed model does not construct.
//
// A known key of an instance that Build rejects never equals the key
// of a valid instance (up to hash collisions): every other field Build
// checks is part of the digest. So a cache keyed by Key serves only
// what a built instance would have been served.
func (j *WireInstance) Key() (key string, ok bool) {
	if len(j.Mapping) == 0 || (j.Processors != 0 && j.Processors != len(j.Mapping)) {
		return "", false
	}
	sm, err := j.SpeedModel.model()
	if err != nil {
		return "", false
	}
	// AddEdge ignores duplicates and Hash sorts, so the digest covers
	// the sorted edge set.
	edges := slices.Clone(j.Edges)
	slices.SortFunc(edges, compareEdges)
	edges = slices.Compact(edges)
	c := canonical{
		n:        len(j.Tasks),
		task:     func(i int) (string, float64) { return j.Tasks[i].Name, j.Tasks[i].Weight },
		edges:    edges,
		order:    j.Mapping,
		speed:    &sm,
		deadline: j.Deadline,
	}
	if j.Reliability != nil {
		c.rel = j.Reliability.model(sm)
		c.frel = j.Reliability.FRel
	}
	return c.digest(), true
}

// Identify returns the instance's Hash: from Key when the wire form
// determines it, and otherwise from the instance Build returns, which
// comes back too. in is nil when Key sufficed; err is Build's.
func (j *WireInstance) Identify() (hash string, in *Instance, err error) {
	if key, ok := j.Key(); ok {
		return key, nil, nil
	}
	if in, err = j.Build(); err != nil {
		return "", nil, err
	}
	return in.Hash(), in, nil
}

// resultJSON is the machine-readable representation of a Result.
type resultJSON struct {
	Solver        string           `json:"solver"`
	Method        string           `json:"method"`
	Exact         bool             `json:"exact"`
	Energy        float64          `json:"energy"`
	Makespan      float64          `json:"makespan"`
	LowerBound    float64          `json:"lowerBound,omitempty"`
	Gap           *float64         `json:"gap,omitempty"`
	WallTimeMS    float64          `json:"wallTimeMs"`
	Nodes         int64            `json:"nodes,omitempty"`
	Iterations    int              `json:"iterations,omitempty"`
	NumReExecuted int              `json:"numReExecuted"`
	Tasks         []resultTaskJSON `json:"tasks"`
}

type resultTaskJSON struct {
	Name  string     `json:"name"`
	Proc  int        `json:"proc"`
	Execs []execJSON `json:"execs"`
}

type execJSON struct {
	Start    float64       `json:"start"`
	Segments []segmentJSON `json:"segments"`
}

type segmentJSON struct {
	Speed    float64 `json:"speed"`
	Duration float64 `json:"duration"`
}

// MarshalResult serializes a solved Result — diagnostics plus the full
// per-task schedule — to JSON, the output-side counterpart of
// MarshalInstance.
func MarshalResult(r *Result) ([]byte, error) {
	if r == nil || r.Schedule == nil {
		return nil, errors.New("core: result has no schedule")
	}
	s := r.Schedule
	j := resultJSON{
		Solver:        r.Solver,
		Method:        r.Method,
		Exact:         r.Exact,
		Energy:        r.Energy,
		Makespan:      s.Makespan(),
		LowerBound:    r.LowerBound,
		WallTimeMS:    float64(r.WallTime.Microseconds()) / 1000,
		Nodes:         r.Nodes,
		Iterations:    r.Iterations,
		NumReExecuted: s.NumReExecuted(),
	}
	if g := r.Gap(); g >= 0 {
		j.Gap = &g
	}
	for i := range s.Tasks {
		tj := resultTaskJSON{Name: s.G.Task(i).Name, Proc: s.Mapping.Proc[i]}
		for _, ex := range s.Tasks[i].Execs {
			ej := execJSON{Start: ex.Start}
			for _, seg := range ex.Segments {
				ej.Segments = append(ej.Segments, segmentJSON{Speed: seg.Speed, Duration: seg.Duration})
			}
			tj.Execs = append(tj.Execs, ej)
		}
		j.Tasks = append(j.Tasks, tj)
	}
	return json.MarshalIndent(j, "", "  ")
}

// UnmarshalResult is the inverse of MarshalResult: it rebuilds a full
// Result — diagnostics plus the executable per-task schedule — from
// dumped JSON and the instance it was solved from. The schedule is
// checked structurally against the instance (task count, names,
// processor assignment, per-execution counts), so a result pasted
// against the wrong instance fails loudly; semantic validity can then
// be re-checked with Schedule.Validate(in.Constraints()) when needed.
// Together with MarshalResult it lets campaigns (cmd/energysim,
// internal/sim) replay solver output from disk without re-solving.
func UnmarshalResult(data []byte, in *Instance) (*Result, error) {
	if in == nil {
		return nil, errors.New("core: UnmarshalResult needs the solved instance")
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	var j resultJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	n := in.Graph.N()
	if len(j.Tasks) != n {
		return nil, fmt.Errorf("core: result has %d tasks, instance has %d", len(j.Tasks), n)
	}
	s := &schedule.Schedule{G: in.Graph, Mapping: in.Mapping, Tasks: make([]schedule.TaskSchedule, n)}
	for i, tj := range j.Tasks {
		if want := in.Graph.Task(i).Name; tj.Name != want {
			return nil, fmt.Errorf("core: result task %d is %q, instance has %q", i, tj.Name, want)
		}
		if want := in.Mapping.Proc[i]; tj.Proc != want {
			return nil, fmt.Errorf("core: result task %d on processor %d, mapping says %d", i, tj.Proc, want)
		}
		if len(tj.Execs) < 1 || len(tj.Execs) > 2 {
			return nil, fmt.Errorf("core: result task %d has %d executions", i, len(tj.Execs))
		}
		for _, ej := range tj.Execs {
			if len(ej.Segments) == 0 {
				return nil, fmt.Errorf("core: result task %d has an execution without segments", i)
			}
			ex := schedule.Execution{Start: ej.Start}
			for _, sj := range ej.Segments {
				ex.Segments = append(ex.Segments, schedule.Segment{Speed: sj.Speed, Duration: sj.Duration})
			}
			s.Tasks[i].Execs = append(s.Tasks[i].Execs, ex)
		}
	}
	res := &Result{
		Solution: Solution{
			Schedule: s,
			Energy:   j.Energy,
			Method:   j.Method,
			Exact:    j.Exact,
		},
		Solver:     j.Solver,
		LowerBound: j.LowerBound,
		WallTime:   time.Duration(j.WallTimeMS * float64(time.Millisecond)),
		Nodes:      j.Nodes,
		Iterations: j.Iterations,
	}
	return res, nil
}
