package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"congame/internal/prng"
	"congame/internal/scenario"
)

// specNames are the committed example specs sweep-mix and serve-jobs run,
// at full size.
var specNames = []string{
	"e2-monomial-singletons",
	"e3-poly-network",
	"braess-combined",
	"fluid-vs-exact",
	"churn-recovery",
}

// pair is one (spec, seed) input of sweep-mix and serve-jobs.
type pair struct {
	name string
	seed uint64
	// raw is the spec file, with its seed replaced when derived: the body
	// POSTed to the daemon and the bytes spec was parsed from, so both
	// workloads run the same spec.
	raw  []byte
	spec *scenario.Spec

	// Filled by runReferences, outside set-up and every timing.
	ref        string  // CSV of a par-1 scenario.Run
	refSeconds float64 // how long that reference run took
	players    float64 // players the core decide phase visited in it
}

// loadPairs reads the example specs and returns the op rotation: for each
// of SeedsPerSpec rounds, one pair per spec, so consecutive ops cycle
// through the five specs. A spec that runs a fixed round budget gets a
// seed derived from the workload seed each round. A spec with a stop
// condition keeps its committed seed, so its pair repeats: its
// replications run until an equilibrium predicate fires, which makes its
// cost a heavy-tailed function of the seed (e2-monomial-singletons took
// 83–911 ms over 30 seeds), and derived seeds would make op_p90_s and
// ops_per_s measure the draw instead of the code. A tracer, when given,
// gets a span around each parse.
func loadPairs(cfg config, tr *tracer) ([]*pair, error) {
	committed := make([]*pair, len(specNames))
	for i, name := range specNames {
		data, err := os.ReadFile(filepath.Join(cfg.Root, "examples", "scenarios", name+".json"))
		if err != nil {
			return nil, fmt.Errorf("read spec: %w", err)
		}
		if committed[i], err = parsePair(name, data, tr); err != nil {
			return nil, err
		}
	}
	var rotation []*pair
	for k := 0; k < cfg.SeedsPerSpec; k++ {
		for i, c := range committed {
			if c.spec.Stop != nil {
				rotation = append(rotation, c)
				continue
			}
			raw, err := withSeed(c.raw, prng.Mix(cfg.Seed, tagSpec, uint64(i), uint64(k))>>33+1)
			if err != nil {
				return nil, fmt.Errorf("spec %s: %w", c.name, err)
			}
			p, err := parsePair(c.name, raw, tr)
			if err != nil {
				return nil, err
			}
			rotation = append(rotation, p)
		}
	}
	return rotation, nil
}

// parsePair parses one spec's bytes into a pair.
func parsePair(name string, raw []byte, tr *tracer) (*pair, error) {
	var sp int
	if tr != nil {
		sp = tr.begin("scenario.Parse", -1, 0)
	}
	spec, err := scenario.Parse(bytes.NewReader(raw))
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return nil, fmt.Errorf("spec %s: %w", name, err)
	}
	return &pair{name: name, seed: spec.Seed, raw: raw, spec: spec}, nil
}

// withSeed returns the spec JSON with its top-level "seed" replaced.
func withSeed(data []byte, seed uint64) ([]byte, error) {
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		return nil, err
	}
	fields["seed"] = json.RawMessage(strconv.FormatUint(seed, 10))
	return json.Marshal(fields)
}

// runReferences computes the par-1 scenario.Run CSV of every distinct pair
// in the rotation, which each op's output must match byte for byte.
func runReferences(ctx context.Context, cfg config, pairs []*pair) error {
	engine := map[string]bool{}
	for _, g := range scenario.DynamicsInfo() {
		for _, k := range g.Kinds {
			engine[k.Name] = g.Group == scenario.GroupEngine
		}
	}
	done := map[*pair]bool{}
	for _, p := range pairs {
		if done[p] {
			continue
		}
		done[p] = true
		t0 := time.Now()
		res, err := scenario.Run(ctx, p.spec, scenario.Options{Par: 1, Quick: cfg.Quick})
		if err != nil {
			return fmt.Errorf("reference %s seed %d: %w", p.name, p.seed, err)
		}
		p.refSeconds = time.Since(t0).Seconds()
		p.ref = res.Table.CSV()
		if engine[res.Spec.Dynamics.Kind] {
			// Rounds × final population: exact without churn, and within
			// a few percent on churn-recovery, whose arrivals leave
			// again 40 rounds later.
			for _, c := range res.Cells {
				for _, r := range c.Results {
					p.players += float64(r.Rounds) * float64(r.Final.Players)
				}
			}
		}
	}
	return nil
}

// checkCSV accepts an op's CSV only when it is byte-identical to the
// pair's reference.
func checkCSV(p *pair, got string) error {
	if got == p.ref {
		return nil
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(p.ref, "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			return fmt.Errorf("%s seed %d: CSV line %d is %q, reference %q", p.name, p.seed, i+1, gl[i], wl[i])
		}
	}
	return fmt.Errorf("%s seed %d: CSV has %d lines, reference %d", p.name, p.seed, len(gl), len(wl))
}

// playersOf sums the players decided by the first ops ops of a rotation
// through pairs.
func playersOf(pairs []*pair, ops int) float64 {
	s := 0.0
	for i := 0; i < ops; i++ {
		s += pairs[i%len(pairs)].players
	}
	return s
}
