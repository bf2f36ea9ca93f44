package tps

import (
	"context"
	"fmt"

	"tps/internal/fabric"
	"tps/internal/store"
)

// This file is the bridge between the simulator and the cross-host sweep
// fabric (internal/fabric, cmd/tpsfarm, cmd/tpsworker). The fabric moves
// opaque cell specs and result blobs; everything simulator-shaped — how a
// spec becomes a runnable configuration, what its store fingerprint is,
// how a result serializes — lives here, so the coordinator, every worker,
// and a plain local -store run all agree on cell identity byte for byte.
// That agreement is the fleet exactness invariant's foundation: a cell
// computed anywhere dedupes against a cell computed anywhere else.

// FleetCells enumerates the scheme-comparison grid (cfg.Suite × setups)
// as wire-serializable cell specs, in the row-major order the assembled
// table consumes them.
func FleetCells(cfg FigureConfig, setups []Setup) []fabric.CellSpec {
	cfg = cfg.withDefaults()
	specs := make([]fabric.CellSpec, 0, len(cfg.Suite)*len(setups))
	for _, w := range cfg.Suite {
		for _, s := range setups {
			specs = append(specs, fabric.CellSpec{
				Workload:    w.Name,
				Scheme:      s.SchemeName(),
				Refs:        cfg.Refs,
				Seed:        cfg.Seed,
				MemoryPages: cfg.MemoryPages,
			})
		}
	}
	return specs
}

// specDefaults applies the FigureConfig zero-value conventions so a spec
// built by hand behaves like one built by FleetCells.
func specDefaults(spec fabric.CellSpec) fabric.CellSpec {
	if spec.Refs == 0 {
		spec.Refs = 1 << 20
	}
	if spec.MemoryPages == 0 {
		spec.MemoryPages = 1 << 22
	}
	return spec
}

// specKeyParts resolves a spec against the registries and builds the
// runKey the engine would use for the same cell.
func specKeyParts(spec fabric.CellSpec) (fabric.CellSpec, Workload, runKey, error) {
	spec = specDefaults(spec)
	w, ok := WorkloadByName(spec.Workload)
	if !ok {
		return spec, Workload{}, runKey{}, fmt.Errorf("tps: unknown workload %q", spec.Workload)
	}
	setup, ok := SetupByName(spec.Scheme)
	if !ok {
		return spec, Workload{}, runKey{}, fmt.Errorf("tps: unknown scheme %q", spec.Scheme)
	}
	k := runKey{name: w.Name, setup: setup, frag: spec.Frag, threshold: spec.Threshold}
	return spec, w, k, nil
}

// SpecKey returns the cell's content address in the result store — the
// same key an engine-local run of the identical configuration uses, which
// is what makes fleet completions idempotent and a coordinator restart
// resumable from any store a worker wrote into.
func SpecKey(spec fabric.CellSpec) (string, error) {
	spec, _, k, err := specKeyParts(spec)
	if err != nil {
		return "", err
	}
	return store.KeyOf(cellFingerprint(spec.Refs, spec.Seed, spec.MemoryPages, k)), nil
}

// RunSpec computes one fleet cell: the worker-side execution path. onRefs
// (nil ok) is the per-batch telemetry hook. The result is bit-identical
// to what the engine computes for the same cell locally — both derive
// their Options from the same runKey and funnel into sim.Run.
func RunSpec(ctx context.Context, spec fabric.CellSpec, onRefs func(uint64)) (Result, error) {
	spec, w, k, err := specKeyParts(spec)
	if err != nil {
		return Result{}, err
	}
	opts := k.options(spec.Refs, spec.Seed, spec.MemoryPages)
	opts.Context = ctx
	opts.OnRefs = onRefs
	res, err := Run(w, opts)
	if err != nil {
		return Result{}, fmt.Errorf("run %s/%v: %w", w.Name, k.setup, err)
	}
	return res, nil
}

// EncodeResult serializes a Result exactly as the engine persists cells,
// so worker completions and store entries are interchangeable bytes.
func EncodeResult(res Result) ([]byte, error) { return encodeResult(res) }

// DecodeResult strictly decodes a persisted or wire-delivered Result;
// unknown fields (schema drift) and truncated payloads are errors, never
// partial fills — the coordinator's ingestion validator wraps this.
func DecodeResult(data []byte) (Result, error) { return decodeResult(data) }
