package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// pinsDir holds, per simulation workload, the simulated statistics of one
// trial for each pinned seed, recorded from the program before any change
// measured against it. A run on a pinned seed must reproduce them exactly.
//
//go:embed pins
var pinsDir embed.FS

// pinFile is the on-disk form of one workload's pins.
type pinFile struct {
	Workload string                `json:"workload"`
	Config   simConfig             `json:"config"`
	Seeds    map[string]trialStats `json:"seeds"`
}

// pinnedStats returns the pinned statistics of (workload, seed), and whether
// the seed is pinned. A pin file recorded for another configuration is an
// error: its figures would not describe this workload.
func pinnedStats(name string, cfg simConfig, seed uint64) (*trialStats, bool, error) {
	b, err := pinsDir.ReadFile("pins/" + name + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var pf pinFile
	if err := json.Unmarshal(b, &pf); err != nil {
		return nil, false, fmt.Errorf("pins/%s.json: %w", name, err)
	}
	if pf.Config != cfg {
		return nil, false, fmt.Errorf("pins/%s.json was recorded for %+v, not %+v", name, pf.Config, cfg)
	}
	st, ok := pf.Seeds[strconv.FormatUint(seed, 10)]
	if !ok {
		return nil, false, nil
	}
	return &st, true, nil
}

// recordPins runs one untraced trial per seed in lo:hi (inclusive) and writes
// pins/<workload>.json in the current directory, which must be the
// benchmark's own. Each trial is checked against a sharded run of the same
// seed before it is pinned.
func recordPins(name, span string) error {
	cfg, ok := simWorkloads[name]
	if !ok {
		return fmt.Errorf("record-pins: %s is not a simulation workload", name)
	}
	loS, hiS, ok := strings.Cut(span, ":")
	lo, err1 := strconv.ParseUint(loS, 10, 64)
	hi, err2 := strconv.ParseUint(hiS, 10, 64)
	if !ok || err1 != nil || err2 != nil || hi < lo {
		return fmt.Errorf("record-pins: want lo:hi, got %q", span)
	}
	pf := pinFile{Workload: name, Config: cfg, Seeds: make(map[string]trialStats)}
	for seed := lo; seed <= hi; seed++ {
		o := &outcome{}
		tr, err := buildTrial(cfg, seed, trialOpts{shards: 2})
		if err != nil {
			return err
		}
		sharded := statsOf(tr.engine.Run(seed))
		u, err := runUntraced(o, cfg, seed, fmt.Sprintf("seed %d", seed), &refCheck{ref: &sharded}, 1)
		if err != nil {
			return err
		}
		if len(o.problems) > 0 {
			return fmt.Errorf("record-pins: %s", strings.Join(o.problems, "; "))
		}
		pf.Seeds[strconv.FormatUint(seed, 10)] = u.stats
		fmt.Fprintf(os.Stderr, "pinned %s seed %d: %d events\n", name, seed, u.stats.Events)
	}
	b, err := json.Marshal(pf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll("pins", 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("pins", name+".json"), append(b, '\n'), 0o644)
}
