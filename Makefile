# Development targets for the CatDB reproduction.

GO ?= go

.PHONY: build vet test race fuzz verify bench lint-fmt lint-encapsulation lint-obs lint-transform lint-dag lint-fanout lint-http

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The benchmark harness fans experiment cells out across a worker pool;
# the race detector guards the per-cell isolation invariants (own LLM
# client, own trace store, read-only shared datasets). internal/profile
# and internal/data cover the parallel profiler and concurrent
# column-summary / profile-cache paths; internal/ml covers the parallel
# ensemble fit/inference paths; internal/pool covers the pool itself,
# including panic recovery on its worker goroutines.
race:
	$(GO) test -race ./internal/bench/... ./internal/core/... ./internal/profile/... ./internal/data/... ./internal/ml/... ./internal/obs/... ./internal/pipescript/... ./internal/pool/...

# Corrupt artifacts must end in an error, never a panic: fuzz the
# tree-model loader and inference for a fixed time. Column summaries must
# match the map-based reference on any bit pattern. The CSV tokenizer must
# give the legacy encoding/csv reader's table or error on any input, at
# three GOMAXPROCS and chunk-size points. On generated programs over every
# model and size, no statement may panic (E_OP_PANIC), Executor.Check must
# give Execute's outcome, and Execute must give the same result at
# GOMAXPROCS 1 and 2. A crasher lands in
# the package's testdata/fuzz/<target>/; commit it with the fix so
# `make test` replays it. -fuzzminimizetime=0x spends the time on new
# inputs instead of shrinking each interesting one, so a crasher is
# written as found, not minimized.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzTreeModel$$' -fuzztime=10s -fuzzminimizetime=0x ./internal/ml/
	$(GO) test -run='^$$' -fuzz='^FuzzSummary$$' -fuzztime=10s -fuzzminimizetime=0x ./internal/data/
	$(GO) test -run='^$$' -fuzz='^FuzzReadCSV$$' -fuzztime=10s -fuzzminimizetime=0x ./internal/data/
	$(GO) test -run='^$$' -fuzz='^FuzzExecute$$' -fuzztime=10s -fuzzminimizetime=0x ./internal/pipescript/

# Every tracked Go file is gofmt-clean. Fail on any file gofmt would
# rewrite.
lint-fmt:
	@matches=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$matches" ]; then \
		echo "lint-fmt: files not gofmt-formatted (run gofmt -w):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Column storage is encapsulated behind accessors (Num/Str/IsMissing/
# SetNum/...): only internal/data may touch the backing slices, and the
# Touch() invalidation contract is gone. Fail on any reference to the old
# exported field names (or Touch) outside internal/data.
#
# A table's name index is only as current as its writers (AddColumn,
# DropColumn, ReplaceColumn), so outside internal/data a Table's Cols is
# read-only and a column in it keeps its Name. Fail on assignment, index
# assignment, append, copy or sort/slices reorder of a Cols field, or a
# Name assignment through one, outside internal/data. The match is
# textual: internal/prompt's own Cols fields (column metadata, not
# tables) are left out, and no other package names a field Cols it
# writes.
lint-encapsulation:
	@matches=$$(grep -rnE '\.(Nums|Strs|Missing)\b|\.Touch\(' --include='*.go' --exclude-dir=data .); \
	if [ -n "$$matches" ]; then \
		echo "lint-encapsulation: direct column-storage access outside internal/data:"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -rnE '\.Cols(\[[^]]*\])?(\.Name)? *(=[^=]|,[^=]*[^=!<>:]=[^=])|(append|copy)\( *[A-Za-z_][A-Za-z0-9_.]*\.Cols\b|(sort|slices)\.[A-Za-z]+\( *[A-Za-z_][A-Za-z0-9_.]*\.Cols\b' --include='*.go' --exclude-dir=data --exclude-dir=prompt .); \
	if [ -n "$$matches" ]; then \
		echo "lint-encapsulation: write to a table's Cols outside internal/data (use AddColumn/DropColumn/ReplaceColumn):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Stage timing in internal/core flows through obs.Now/obs.Since so the
# span clock stays injectable and the GenTime/ExecTime split stays
# auditable. Fail on any raw time.Now there.
lint-obs:
	@matches=$$(grep -rnE 'time\.Now\(' --include='*.go' internal/core/); \
	if [ -n "$$matches" ]; then \
		echo "lint-obs: raw time.Now in internal/core (use obs.Now / obs.Since):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# The serving half of the fit/transform split applies only recorded
# parameters: it must have no notion of a label column. Fail on any
# reference to the executor's Target field (or a target option lookup)
# in the transform-phase source.
lint-transform:
	@matches=$$(grep -n 'Target' internal/pipescript/transform.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-transform: transform-phase code references the target column:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Op metadata (arity, column footprint, handlers) lives in one registry
# (pipescript/optable.go) consumed by the parser, executor and analyzer.
# Fail on any op dispatch switch in the executor sources or any knownOps
# registration outside the registry.
lint-dag:
	@matches=$$(grep -nE 'switch (st|stmt)\.Op' internal/pipescript/exec.go internal/pipescript/ops_extra.go); \
	if [ -n "$$matches" ]; then \
		echo "lint-dag: op dispatch switch outside the op registry (use registerOp):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -rnE 'knownOps\[[^]]*\] *=|registerOp\(' --include='*.go' internal/pipescript/ | grep -v 'optable.go'); \
	if [ -n "$$matches" ]; then \
		echo "lint-dag: op registration outside internal/pipescript/optable.go:"; \
		echo "$$matches"; \
		exit 1; \
	fi

# Statements run one at a time in program order, and op bodies and the
# serving path are plain serial row loops: nothing in internal/pipescript
# fans out. Model fits and inference parallelize inside internal/ml. Fail
# on raw pool fan-outs or goroutines in any non-test source of the
# package.
#
# internal/pool is the one place that decides concurrency: every batch
# runs on GOMAXPROCS workers, capped at its size. Fail on a
# runtime.GOMAXPROCS call, a Workers/workers int field or parameter, or a
# "workers" flag in any tracked non-test Go file outside internal/pool
# and e2ebench/ (the benchmark, whose speed probe sizes itself from
# GOMAXPROCS). Tests set GOMAXPROCS to sweep worker counts.
lint-fanout:
	@matches=$$(grep -nE 'pool\.(Map|Each)\(|go func' $$(ls internal/pipescript/*.go | grep -v '_test\.go$$')); \
	if [ -n "$$matches" ]; then \
		echo "lint-fanout: raw parallelism in internal/pipescript (model parallelism lives in internal/ml):"; \
		echo "$$matches"; \
		exit 1; \
	fi
	@matches=$$(grep -nE 'runtime\.GOMAXPROCS\(|\b[Ww]orkers( *, *[A-Za-z_][A-Za-z0-9_]*)* +int\b|"workers"' $$(git ls-files '*.go' | grep -v '_test\.go$$' | grep -vE '^(internal/pool|e2ebench)/')); \
	if [ -n "$$matches" ]; then \
		echo "lint-fanout: worker count outside internal/pool (the pool sizes every fan-out from GOMAXPROCS):"; \
		echo "$$matches"; \
		exit 1; \
	fi

# The live ops plane is the repo's single HTTP surface: every handler is
# registered on internal/obs/opsserver's private mux, so its read-only
# guarantee (and the bit-identity contract behind it) is auditable in
# one file. Fail on handler registration, mux construction, or server
# listening anywhere else — other packages embed the plane via
# opsserver.Start, they never grow endpoints of their own.
lint-http:
	@matches=$$(grep -rnE 'http\.(Handle|HandleFunc)\(|http\.NewServeMux\(|http\.ListenAndServe\(|pprof\.(Index|Cmdline|Profile|Symbol|Trace)|"net/http/pprof"' --include='*.go' . | grep -v '^\./internal/obs/opsserver/'); \
	if [ -n "$$matches" ]; then \
		echo "lint-http: HTTP handler registration outside internal/obs/opsserver:"; \
		echo "$$matches"; \
		exit 1; \
	fi

verify: build vet lint-fmt lint-encapsulation lint-obs lint-transform lint-dag lint-fanout lint-http test race fuzz

# Profiling + ML benchmarks: one cold iteration per benchmark (matching
# how the committed baselines were captured) merged into BENCH_*.json;
# the baseline blocks in those files are preserved. Every lane repeats
# each benchmark (-count=5): benchjson folds the repeats into medians,
# records the ns/op range beside them, and marks a speedup "(noise)"
# when the ranges overlap.
#
# Two-pass lanes select their reference pass with BENCH_BASELINE=<lane>
# (lanes: data, ingest — see internal/bench/baseline). The summary and
# exec lanes are single passes: their baseline blocks are earlier
# captures (the map-based summary; the statement DAG), which benchjson
# preserves. The predict lane runs its 500k-row batch at its own
# iteration count and at the host's GOMAXPROCS (a lane that sets more Ps
# than the host has CPUs measures oversubscription), and folds both runs
# into one file; its single-row rows include a serve-shaped 17-column row
# widened to 100 features (BenchmarkPredictSingleRowWide). The ML lane
# runs at -cpu=1, so every fit and inference runs on one worker and its
# rows measure the algorithms, not parallelism; benchjson strips the -N
# suffix -cpu adds to a name.
bench:
	$(GO) test -run='^$$' -bench=Profile -benchmem -benchtime=1x -count=5 -timeout=30m ./internal/profile/ | $(GO) run ./cmd/benchjson -o BENCH_profile.json
	$(GO) test -run='^$$' -bench=ML -benchmem -benchtime=1x -count=5 -cpu=1 -timeout=30m ./internal/ml/ | $(GO) run ./cmd/benchjson -o BENCH_ml.json
	BENCH_BASELINE=data $(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x -count=5 ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Data -benchmem -benchtime=10x -count=5 ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_data.json
	$(GO) test -run='^$$' -bench=Obs -benchmem -benchtime=50x -count=5 ./internal/bench/ | $(GO) run ./cmd/benchjson -o BENCH_obs.json
	{ $(GO) test -run='^$$' -bench='^BenchmarkPredict(SingleRow|SingleRowWide|Batch)$$' -benchmem -benchtime=300x -count=5 ./internal/pipescript/; \
	  $(GO) test -run='^$$' -bench='^BenchmarkPredictBatch500k$$' -benchmem -benchtime=3x -count=5 -timeout=30m ./internal/pipescript/; } | $(GO) run ./cmd/benchjson -o BENCH_predict.json
	BENCH_BASELINE=ingest $(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -count=5 -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -set-baseline -o BENCH_ingest.json
	$(GO) test -run='^$$' -bench=Ingest -benchmem -benchtime=1x -count=5 -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_ingest.json
	$(GO) test -run='^$$' -bench=Summary -benchmem -benchtime=1x -count=5 -timeout=30m ./internal/data/ | $(GO) run ./cmd/benchjson -o BENCH_summary.json
	$(GO) test -run='^$$' -bench='^BenchmarkExec' -benchmem -benchtime=3x -count=5 -timeout=30m ./internal/pipescript/ | $(GO) run ./cmd/benchjson -o BENCH_exec.json
