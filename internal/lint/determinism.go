package lint

import (
	"go/ast"
)

// deterministicPkgs are the packages whose outputs must be a pure
// function of their inputs and seeds: the measurement engine and the
// scheduler under it, the statistics, the lookup index, and the
// experiment runners.
// The parallel/serial byte-identity guarantee (TestParallelMatchesSerial)
// holds only while nothing in them reads the wall clock or an unseeded
// global RNG.
var deterministicPkgs = []string{
	"routergeo/internal/core",
	"routergeo/internal/par",
	"routergeo/internal/stats",
	"routergeo/internal/ipx",
	"routergeo/internal/experiments",
}

// wallClockFuncs are the time package entry points that read or react
// to the wall clock. time.Duration arithmetic and constants stay legal.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTicker": true, "NewTimer": true, "Sleep": true,
}

// seededRandFuncs are the only math/rand entry points measurement code
// may touch: explicit construction from an explicit seed. Everything
// else (rand.Intn, rand.Float64, rand.Shuffle, rand.Seed, ...) either
// uses the global RNG or reseeds it, and both break replayability.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

// Determinism forbids wall-clock reads and global/unseeded randomness
// inside the measurement packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "Measurement code (internal/core, internal/par, internal/stats, " +
		"internal/ipx, internal/experiments) must be deterministic for a given seed: no " +
		"time.Now/time.Since/timers, and math/rand only through explicitly " +
		"seeded constructors (rand.New(rand.NewSource(seed))). This is the " +
		"invariant behind the byte-identical parallel/serial guarantee.",
	Run: runDeterminism,
}

func runDeterminism(p *Pass) {
	if !pathInAny(p.Pkg.Path, deterministicPkgs) {
		return
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn, ok := pkgFuncCall(p.Pkg.Info, call)
			if !ok {
				return true
			}
			switch pkgPath {
			case "time":
				if wallClockFuncs[fn] {
					p.Reportf(call.Pos(),
						"time.%s reads the wall clock inside measurement code; results would stop being a pure function of inputs and seed", fn)
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[fn] {
					p.Reportf(call.Pos(),
						"rand.%s uses the global or unseeded RNG; construct one with rand.New(rand.NewSource(seed)) and thread it through", fn)
				}
			}
			return true
		})
	}
}
