package engine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/platform"
)

// The Default registry catalogue. One entry per paper algorithm:
//
//	acyclic        Theorem 4.1 dichotomic search + Lemma 4.6 low-degree scheme
//	acyclic-search Theorem 4.1 search only (throughput + witness word)
//	acyclic-open   Algorithm 1 (open-only platforms, slack ≤ 1)
//	cyclic-bound   Lemma 5.1 closed-form optimal cyclic throughput (no scheme)
//	cyclic-open    Theorem 5.2 cyclic constructor (open-only, slack ≤ 2)
//	cyclic-pack    acyclic-layer packing toward T* on guarded platforms
//	greedy         best-of ω1/ω2 canonical words (Theorem 6.2 machinery)
//	exhaustive     brute-force word enumeration (small instances)
//	depth          dichotomic search + depth-aware builder (delay ablation)
//	oneport        degree-1 pipeline baseline (open-only ablation)
//
// Every solver runs its core hot path through the engine-pooled
// workspace it receives, so sweeps reuse scratch across instances.
func init() {
	Default.MustRegister(NewIncrementalSolver("acyclic",
		CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			// Keep the witness word: it is the warm start a Session (or
			// the plan store's neighbor index) repairs from later.
			T, s, w, err := core.SolveAcyclic(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		},
		core.RepairAcyclic))

	Default.MustRegister(NewSolver("acyclic-search",
		CapExact|CapHandlesGuarded,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			T, w, err := core.OptimalAcyclicThroughput(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Word: w}, nil
		}))

	Default.MustRegister(NewSolver("acyclic-open",
		CapExact|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			if ins.M() > 0 {
				return Result{}, fmt.Errorf("%w: requires an open-only instance (m = %d)", ErrInfeasible, ins.M())
			}
			T := core.AcyclicOpenOptimalThroughput(ins)
			s, err := core.AcyclicOpen(ins, T)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s}, nil
		}))

	Default.MustRegister(NewSolver("cyclic-bound",
		CapExact|CapHandlesGuarded|CapCyclic,
		func(ins *platform.Instance, _ *core.Workspace) (Result, error) {
			return Result{Throughput: core.OptimalCyclicThroughput(ins)}, nil
		}))

	Default.MustRegister(NewSolver("cyclic-open",
		CapExact|CapBuildsScheme|CapCyclic,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			T, s, err := core.SolveCyclicOpen(ins, ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s}, nil
		}))

	Default.MustRegister(NewSolver("cyclic-pack",
		CapHandlesGuarded|CapBuildsScheme|CapCyclic|CapAnytime,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			s, achieved, err := core.PackCyclicGuarded(ins, core.OptimalCyclicThroughput(ins), ws)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: achieved, Scheme: s}, nil
		}))

	Default.MustRegister(NewSolver("greedy",
		CapHandlesGuarded|CapBuildsScheme|CapAnytime,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			T, w, err := core.BestCanonicalThroughput(ins, ws)
			if err != nil {
				return Result{}, err
			}
			T, s, err := core.BuildSchemeShaved(ins, w, T, ws, core.BuildScheme)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		}))

	Default.MustRegister(NewSolver("exhaustive",
		CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			T, w, err := core.ExhaustiveAcyclicOptimumFloat(ins, ws)
			if err != nil {
				return Result{}, err
			}
			T, s, err := core.BuildSchemeShaved(ins, w, T, ws, core.BuildScheme)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		}))

	Default.MustRegister(NewSolver("depth",
		CapExact|CapHandlesGuarded|CapBuildsScheme,
		func(ins *platform.Instance, ws *core.Workspace) (Result, error) {
			T, w, err := core.OptimalAcyclicThroughput(ins, ws)
			if err != nil {
				return Result{}, err
			}
			T, s, err := core.BuildSchemeShaved(ins, w, T, ws,
				func(ins *platform.Instance, w core.Word, T float64, _ *core.Workspace) (*core.Scheme, error) {
					return core.BuildSchemeDepthAware(ins, w, T)
				})
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s, Word: w}, nil
		}))

	Default.MustRegister(NewSolver("oneport",
		CapBuildsScheme|CapAnytime,
		func(ins *platform.Instance, _ *core.Workspace) (Result, error) {
			T, s, err := core.OnePortChainScheme(ins)
			if err != nil {
				return Result{}, err
			}
			return Result{Throughput: T, Scheme: s}, nil
		}))
}
