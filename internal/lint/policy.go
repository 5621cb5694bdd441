package lint

// DefaultConfig is this repository's model-invariant policy. It is data,
// not code: adding a package means registering it in Layers (the layer-dag
// check fails otherwise), and widening any rule is a reviewed edit here,
// not a silent drift.
func DefaultConfig() Config {
	const m = "coleader"
	i := func(name string) string { return m + "/internal/" + name }
	return Config{
		Module: m,

		// The packages whose algorithms must be content-oblivious: the
		// paper's core algorithms, the universal simulation over pulses,
		// the lower-bound machinery (paper Sections 3-5), and the fault
		// plane (an adversary that reads pulse content would be strictly
		// stronger than the model's, voiding the stabilization results).
		Oblivious: []string{i("core"), i("defective"), i("lowerbound"), i("fault")},
		PulseType: i("pulse") + ".Pulse",
		ContentImports: []string{
			i("baseline"), // content-carrying classical protocols
			"encoding",    // serialization smuggles content
		},

		// Wall-clock time exists only where real concurrency does. cmd/ is
		// no longer exempt wholesale: simulation-critical logic in
		// cmd/modelcheck and cmd/experiments is checked like any other
		// package, and only the named flag-parsing/reporting files may
		// time their own output.
		TimeExempt: []string{i("live")},
		TimeExemptFiles: []string{
			"cmd/experiments/main.go", // times table generation for display
			"cmd/ringsim/progress.go", // paces the stderr progress ticker
		},

		// Replay determinism: the simulator, the core algorithms, the
		// model checker (whose Report and witness must not depend on map
		// iteration order at any worker count), and the fault plane (its
		// schedule and injection log must replay bit-for-bit from a seed).
		MapRangePkgs: []string{i("sim"), i("core"), i("check"), i("fault")},

		// The intended import DAG. Entries list module-internal imports
		// only; stdlib imports are unconstrained here (the content checks
		// constrain encoding/*).
		Layers: map[string][]string{
			// Foundation: no internal deps.
			i("pulse"):     {},
			i("xrand"):     {},
			i("stats"):     {},
			i("lint"):      {},
			i("benchjson"): {},

			// Model vocabulary over pulses.
			i("node"): {i("pulse")},
			i("ring"): {i("pulse")},

			// Seeded fault schedules: pure data derived from xrand streams,
			// consumed by both runtimes.
			i("fault"): {i("xrand")},

			// Runtimes.
			i("sim"):  {i("fault"), i("node"), i("pulse"), i("ring")},
			i("live"): {i("fault"), i("node"), i("pulse"), i("ring")},

			// Algorithms.
			i("core"):       {i("node"), i("pulse"), i("ring"), i("xrand")},
			i("defective"):  {i("core"), i("node"), i("pulse")},
			i("lowerbound"): {i("node"), i("pulse"), i("ring"), i("sim")},
			i("baseline"):   {i("node"), i("pulse"), i("ring"), i("sim")},

			// Verification and observation layers. The checker imports
			// the fault package for fault.Plan — the exhaustive
			// counterpart of the runtimes' sampled plane (§9.5).
			i("check"):        {i("fault"), i("node"), i("pulse"), i("ring"), i("sim")},
			i("trace"):        {i("node"), i("pulse"), i("sim")},
			i("viz"):          {i("pulse"), i("sim")},
			i("differential"): {i("live"), i("node"), i("ring"), i("sim")},

			// Harness.
			i("experiments"): {
				i("baseline"), i("check"), i("core"), i("defective"),
				i("fault"), i("lowerbound"), i("node"), i("pulse"),
				i("ring"), i("sim"), i("stats"), i("trace"), i("xrand"),
			},

			// Facade.
			m: {
				i("baseline"), i("core"), i("defective"), i("live"),
				i("lowerbound"), i("node"), i("pulse"), i("ring"),
				i("sim"), i("trace"),
			},
		},
		LayerExempt: []string{m + "/cmd", m + "/examples"},

		// Packages with real shared-memory concurrency: the live runtime,
		// the parallel exhaustive explorer, and the fault plane (the
		// ring-wide delivery ordinal behind window triggers is read and
		// advanced from every node goroutine in live).
		AtomicPkgs: []string{i("live"), i("check"), i("fault")},

		// Machines whose Init/OnMsg handlers run inline on the event loops
		// of internal/sim and internal/live: the algorithms, the universal
		// simulation, the lower-bound machinery, and the classical
		// baselines. A blocking operation in any of their handlers would
		// deadlock the runtime.
		HandlerPkgs: []string{
			i("core"), i("defective"), i("lowerbound"), i("baseline"),
		},

		// Any type whose OnMsg takes a node.Emitter instantiation is
		// machine-shaped and gets handler-block coverage even before its
		// package is registered above.
		EmitterType: i("node") + ".Emitter",
	}
}
