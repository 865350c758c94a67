# Tier-1 verify path. CI and pre-commit both run `make verify`:
# build + vet + full tests, then a short-mode race check of the
# parallel sweep worker pool (including cancellation and shared-
# registry metrics aggregation) and of the sharded engine's packet
# hand-off (open loop, and closed loop with pooled packets crossing in
# both directions) so they stay race-clean.
.PHONY: verify build vet test race lint bench bench-smoke topo-smoke tcp-smoke fuzz-smoke fuzz-nightly docs-check qosd-smoke comp-smoke sizing-smoke figs-smoke plan-smoke trace-smoke

verify: build vet test race

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Style gate: gofmt must produce no diff, and vet must be clean. It also
# keeps the one spec→link builder the only one: outside tests and bench/,
# a scheme's Build may be called only by internal/scheme (NewLink) and by
# topology.Validate's one dry build, which builds each link's linkConfig
# (the configuration the engine's NewLink gets) and makes no link; the
# exemption matches that single l.scheme.Build(cfg) line; and no legacy.go
# shim file may come back. It keeps the packet path allocation-free the
# same way: outside tests, bench/ and internal/packet nothing may build a
# packet.Packet literal (packets come from sim.Simulator.NewPacket), and
# in internal/source and internal/sched every callback handed to the
# simulator's At/After must be a stored one (a field named ...Fn), not a
# method value made per event — per-flow objects re-arm through
# AtHandler with a receiver over themselves instead, which the rule does
# not match. And it keeps one flow builder: outside tests, bench/,
# internal/source and the flow layer (internal/network/flows.go) no code
# may carve a slab of sources or regulators (source.TCPs, source.Shapers,
# make([]source.OnOff|CBR|TCP|Shaper|Meter, ...)) — runners describe
# their flows to network.NewFlows instead. And it keeps one admission
# layer: outside tests, every Admit(flow int, size units.Bytes) bool —
# any buffer policy, combined queue/managers included — lives in
# internal/buffer and keeps its books in the shared accounting. And it
# keeps the packet path's priority queues typed and flat: non-test code
# in internal/sim, internal/sched and internal/buffer may not import
# container/heap, whose interface calls and boxed Push/Pop the kernel
# and WFQ no longer pay. And it keeps one random
# source: outside tests and internal/sim no code may call rand.New or
# rand.NewSource — every stream comes from sim.NewRand or a sim.Rand
# slab element, math/rand's sequence with a division-free seed. And it
# keeps one implementation of each competitive policy: outside tests, the
# only Arrive(a Arrival) bool is internal/online's adapter, which drives
# internal/buffer's class policies. And it keeps one admission book:
# outside tests and bench/, only internal/core may declare a
# Check(spec packet.FlowSpec) ... RejectReason method — the offline
# engine's plan, the serial admitter and the daemon's shards all decide
# through core.Region. And it keeps one path to a link: outside tests,
# only internal/scheme (NewLink), bench/ and qtrace's -example1 (Example
# 1's hand-set thresholds) may call sched.NewLink — every other link is
# a scheme's. And it ratchets panics: non-test code
# outside bench/ may hold at most PANIC_LINES lines with a panic( call.
# A change that removes one lowers PANIC_LINES to the new count in the
# same commit, so the number only goes down. CI runs this alongside
# `make verify`.
PANIC_LINES = 81

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; \
		gofmt -d $$unformatted; exit 1; \
	fi
	go vet ./...
	@builds=$$(grep -rn --include='*.go' --exclude='*_test.go' '\.Build(' . \
		| grep -v -e '^\./internal/scheme/' -e '^\./bench/'); \
	dry=$$(printf '%s\n' "$$builds" \
		| grep -m 1 -e '^\./internal/topology/topology\.go:[0-9]*:.*l\.scheme\.Build(cfg)'); \
	builds=$$(printf '%s\n' "$$builds" | grep -v -x -F -e "$$dry"); \
	if [ -n "$$builds" ]; then \
		echo "build links with (*scheme.Scheme).NewLink, not Build:"; echo "$$builds"; exit 1; \
	fi
	@shims=$$(find . -name legacy.go); \
	if [ -n "$$shims" ]; then echo "legacy shim files are not allowed:"; echo "$$shims"; exit 1; fi
	@literals=$$(grep -rn --include='*.go' --exclude='*_test.go' 'packet\.Packet{' . \
		| grep -v -e '^\./bench/' -e '^\./internal/packet/'); \
	if [ -n "$$literals" ]; then \
		echo "draw packets from the simulator's pool (NewPacket), not a literal:"; echo "$$literals"; exit 1; \
	fi
	@rearms=$$(grep -n -E 'sim\.(At|After)\(' internal/source/*.go internal/sched/*.go \
		| grep -v -e '_test\.go:' | grep -v -E 'Fn\)( })?$$'); \
	if [ -n "$$rearms" ]; then \
		echo "re-arm with AtHandler and a receiver over the object, or a callback stored at construction (a ...Fn field), not a per-event method value:"; \
		echo "$$rearms"; exit 1; \
	fi
	@slabs=$$(grep -rn -E --include='*.go' --exclude='*_test.go' \
			'source\.(TCPs|Shapers)\(|make\(\[\]source\.(OnOff|CBR|TCP|Shaper|Meter)\b' . \
		| grep -v -e '^\./bench/' -e '^\./internal/source/' -e '^\./internal/network/flows\.go:'); \
	if [ -n "$$slabs" ]; then \
		echo "wire flows through network.NewFlows, not a source slab of your own:"; echo "$$slabs"; exit 1; \
	fi
	@admits=$$(grep -rnF --include='*.go' --exclude='*_test.go' ') Admit(flow int, size units.Bytes) bool' . \
		| grep -v -e '^\./internal/buffer/'); \
	if [ -n "$$admits" ]; then \
		echo "admission policies live in internal/buffer, on its shared accounting:"; echo "$$admits"; exit 1; \
	fi
	@arrives=$$(grep -rnF --include='*.go' --exclude='*_test.go' ') Arrive(a Arrival) bool' . \
		| grep -v -e '^\./internal/online/adapter\.go:'); \
	if [ -n "$$arrives" ]; then \
		echo "competitive policies are internal/buffer's, driven by internal/online/adapter.go:"; echo "$$arrives"; exit 1; \
	fi
	@checks=$$(grep -rnE --include='*.go' --exclude='*_test.go' \
			'\) Check\([[:alnum:]_]+ packet\.FlowSpec\) .*RejectReason' . \
		| grep -v -e '^\./internal/core/' -e '^\./bench/'); \
	if [ -n "$$checks" ]; then \
		echo "admission regions are internal/core's: decide through core.Region, not a Check of your own:"; echo "$$checks"; exit 1; \
	fi
	@heaps=$$(grep -rln --include='*.go' --exclude='*_test.go' '"container/heap"' \
			internal/sim internal/sched internal/buffer); \
	if [ -n "$$heaps" ]; then \
		echo "packet-path priority queues are typed flat heaps, not container/heap:"; echo "$$heaps"; exit 1; \
	fi
	@streams=$$(grep -rnE --include='*.go' --exclude='*_test.go' 'rand\.(New|NewSource)\(' . \
		| grep -v -e '^\./internal/sim/' | grep -v -E '^[^:]+:[0-9]+:[[:space:]]*//'); \
	if [ -n "$$streams" ]; then \
		echo "draw random streams from sim.NewRand or a sim.Rand, not rand.New/rand.NewSource:"; echo "$$streams"; exit 1; \
	fi
	@links=$$(grep -rnF --include='*.go' --exclude='*_test.go' 'sched.NewLink(' . \
		| grep -v -e '^\./internal/scheme/' -e '^\./bench/' -e '^\./cmd/qtrace/main\.go:'); \
	if [ -n "$$links" ]; then \
		echo "build links with (*scheme.Scheme).NewLink (or run a topology), not sched.NewLink:"; echo "$$links"; exit 1; \
	fi
	@panics=$$(grep -rnF --include='*.go' --exclude='*_test.go' 'panic(' . | grep -v -e '^\./bench/' | wc -l); \
	if [ "$$panics" -gt $(PANIC_LINES) ]; then \
		echo "non-test panic( lines outside bench/: $$panics, more than PANIC_LINES = $(PANIC_LINES); return an error instead"; exit 1; \
	fi

race:
	go test -race -short -run 'TestParallel|TestPool|TestSweepCancel|TestMetricsDeterministic' ./internal/experiment
	go test -race -run 'TestShardEquivalence|TestGFR3ShardedPoolStaysBounded|TestRunMergesDeterministically' ./internal/topology ./internal/shard
	go test -race ./internal/qosd ./internal/core
	go test -race ./internal/online
	go test -race -run 'TestCompeteDeterministicAcrossWorkers' ./internal/validate
	go test -race -short ./internal/sizing

# Record a performance baseline with the repository's benchmark
# (BENCHMARK.json, bench/README.md): every workload, its gated
# end-to-end metrics and per-layer probes, written to bench/out/.
bench:
	go run ./bench

# One fast iteration of every root benchmark (Table 1 traffic, the
# Figure 1 sweep sequential and parallel, the end-to-end Table 1 run
# with and without metrics) and of the kernel's hold models
# (internal/sim's BenchmarkHold and BenchmarkHoldTimers): catches
# benchmarks that no longer compile or crash without paying for full
# measurement.
# Then short runs of the repository's benchmark (BENCHMARK.json,
# bench/README.md) on its Table 1 workload, its open-loop WFQ cell (the
# event queue's claimed workload), its closed-loop sizing cell and its
# sharded network: each exits non-zero unless the repeated
# calls' result fingerprints agree and the workload's output checks
# hold (shaped flows lose nothing, utilization within bounds, the
# sharded fingerprint equal to the single-shard one) — those checks are
# the point here, not the timing. CI runs this on every push.
bench-smoke:
	go test -run '^$$' -bench . -benchtime 1x .
	go test -run '^$$' -bench . -benchtime 1x ./internal/sim
	go run ./bench --workload link-fifo --seed 1 --seconds 2 --trace 0
	go run ./bench --workload link-wfq-1k --seed 1 --seconds 2 --trace 0
	go run ./bench --workload tcp-cell --seed 1 --seconds 2 --trace 0
	go run ./bench --workload net-sharded --seed 1 --seconds 2 --trace 0

# Run every shipped topology scenario short with -check: fails if any
# admitted conformant flow loses conformant traffic at any hop or
# misses its reserved throughput, or if a scenario's stdout no longer
# hashes (first 16 hex digits of its sha256) to its entry in
# TOPO_SMOKE_SHA256, which pins the simulated results byte for byte.
# examples/churn, the churn study as one topology per arrival rate, is
# pinned the same way under example-churn. A
# change that moves these bytes on purpose updates the list and records
# old -> new hash, with the reason, in CHANGES.md in the same commit.
# CI runs this on every push.
TOPO_SMOKE_SHA256 = churn:f47101c4f985362b gfr3:9123adf280f14d02 \
	parkinglot:a1bf7012fb2ab122 tandem3:e34706ebdbea35ef \
	example-churn:0fbe7f70587cd2de

topo-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qnet ./cmd/qnet; \
	for f in topologies/*.json; do \
		n=$$(basename $$f .json); \
		echo "== $$f"; \
		/tmp/bufqos-qnet -topology $$f -duration 5 -runs 2 -check > /tmp/bufqos-topo-$$n.txt \
			|| { cat /tmp/bufqos-topo-$$n.txt; exit 1; }; \
		cat /tmp/bufqos-topo-$$n.txt; \
		got=$$(sha256sum /tmp/bufqos-topo-$$n.txt | cut -c1-16); \
		want=$$(printf '%s\n' $(TOPO_SMOKE_SHA256) | sed -n "s/^$$n://p"); \
		if [ "$$got" != "$$want" ]; then \
			echo "topo-smoke: $$n stdout sha256 $$got, want $${want:-(no entry in TOPO_SMOKE_SHA256)}"; exit 1; \
		fi; \
	done; \
	n=example-churn; \
	echo "== examples/churn"; \
	go run ./examples/churn > /tmp/bufqos-topo-$$n.txt; \
	cat /tmp/bufqos-topo-$$n.txt; \
	got=$$(sha256sum /tmp/bufqos-topo-$$n.txt | cut -c1-16); \
	want=$$(printf '%s\n' $(TOPO_SMOKE_SHA256) | sed -n "s/^$$n://p"); \
	if [ "$$got" != "$$want" ]; then \
		echo "topo-smoke: $$n stdout sha256 $$got, want $${want:-(no entry in TOPO_SMOKE_SHA256)}"; exit 1; \
	fi; \
	echo "topo-smoke: ok (every scenario at its pinned sha256)"

# Closed-loop determinism gate: the gfr3 TCP scenario (feedback data
# plane: ACKs and drop notifications riding reverse links) run with
# -check at -shards 1 and -shards 4 must produce byte-identical output.
# CI runs this on every push.
tcp-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qnet ./cmd/qnet; \
	/tmp/bufqos-qnet -topology topologies/gfr3.json -duration 5 -check \
		-shards 1 > /tmp/bufqos-gfr3-s1.txt; \
	/tmp/bufqos-qnet -topology topologies/gfr3.json -duration 5 -check \
		-shards 4 > /tmp/bufqos-gfr3-s4.txt; \
	c1=$$(sha256sum /tmp/bufqos-gfr3-s1.txt | cut -d' ' -f1); \
	c4=$$(sha256sum /tmp/bufqos-gfr3-s4.txt | cut -d' ' -f1); \
	if [ "$$c1" != "$$c4" ]; then \
		echo "tcp-smoke: shard 1 and shard 4 outputs diverge"; \
		diff /tmp/bufqos-gfr3-s1.txt /tmp/bufqos-gfr3-s4.txt; exit 1; \
	fi; \
	echo "tcp-smoke: ok (sha256 $$c1)"

# Boot the admission daemon on a generated topology, drive it with a
# short deterministic load run (two passes must produce bit-identical
# decision checksums, and the snapshot must round-trip through
# /v1/restore byte-identically), then assert a clean SIGTERM drain.
# CI runs this on every push.
qosd-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qosd ./cmd/qosd; \
	go build -o /tmp/bufqos-qload ./cmd/qload; \
	rm -f /tmp/bufqos-qosd.addr; \
	/tmp/bufqos-qosd -gen 'random?links=100,flows=1000,seed=1' \
		-addr 127.0.0.1:0 -addr-file /tmp/bufqos-qosd.addr & pid=$$!; \
	for i in $$(seq 100); do [ -s /tmp/bufqos-qosd.addr ] && break; sleep 0.1; done; \
	[ -s /tmp/bufqos-qosd.addr ] || { echo "qosd never bound"; kill $$pid 2>/dev/null; exit 1; }; \
	/tmp/bufqos-qload -addr $$(cat /tmp/bufqos-qosd.addr) -clients 4 -ops 20000 \
		-seed 1 -batch 256 -passes 2 -check-snapshot \
		|| { kill $$pid 2>/dev/null; exit 1; }; \
	kill -TERM $$pid; wait $$pid; \
	echo "qosd-smoke: ok (clean drain)"

# Bounded property-fuzzing campaign: 50 seeded scenarios, 2 s horizon,
# every invariant oracle, each judging the scenario it generated (the
# competitive bounds and the √n sizing floor are comp-smoke's and
# sizing-smoke's). Fails (and writes shrunk reproducers to
# testdata/repros/) on any violation. CI runs this on every push; the
# scheduled nightly workflow runs fuzz-nightly instead.
fuzz-smoke:
	go run ./cmd/qfuzz -n 50 -duration 2s -seed 1 -out testdata/repros

# The long campaign for the nightly schedule: more cases and a second
# sweep with deliberately weakened thresholds that MUST fail (the
# necessity direction of Proposition 1): its reproducers land in a
# throwaway directory and the expected non-zero exit is inverted. Then
# every native Go fuzz target runs for 60 s: the workload
# parser, the scenario loader (no panic, and every accepted scenario
# writes and parses back to itself), the random source against
# math/rand, the event queue's dispatch order against a linear scan
# (minimizing each new input for at most 5 s: the scan is quadratic,
# and the default 60 s spends the minute on the first few inputs), a
# FIFO link's computed departures against its departure events under
# arrivals on exact departure instants and mid-run rate, failure and
# hook changes (minimized the same way), the
# admission daemon's decision-body scanner and its answer writer
# against encoding/json, its snapshot restore (no panic, a refused body
# leaves the snapshot as it was, an accepted one's snapshot restores
# into a fresh daemon byte for byte), the scheme spec parser (no panic in Parse or
# Build, and every accepted spec parses back from its canonical form),
# and the competitive-analysis instance parser with
# every policy against the offline optimum and its proven bound (within
# the bound's model). A failing input is written under the
# package's testdata/fuzz/. Last, the geometries beyond the comp-smoke
# and sizing-smoke defaults: the competitive sweep at m = 2 and m = 4
# queues over B ∈ {1,2,3} with 50 replications, and the √n floor at
# n ∈ {64,128,256} over seeds 1–20.
fuzz-nightly:
	go run ./cmd/qfuzz -n 500 -duration 2s -seed 1 -out testdata/repros
	go test -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime 60s ./internal/experiment
	go test -run '^$$' -fuzz '^FuzzParseTopology$$' -fuzztime 60s ./internal/topology
	go test -run '^$$' -fuzz '^FuzzSourceMatchesMathRand$$' -fuzztime 60s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzDispatchMatchesNaiveOrder$$' -fuzztime 60s -fuzzminimizetime 5s ./internal/sim
	go test -run '^$$' -fuzz '^FuzzComputedDeparturesMatchEvents$$' -fuzztime 60s -fuzzminimizetime 5s ./internal/sched
	go test -run '^$$' -fuzz '^FuzzDecisionBodies$$' -fuzztime 60s ./internal/qosd
	go test -run '^$$' -fuzz '^FuzzDecisionAnswers$$' -fuzztime 60s ./internal/qosd
	go test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime 60s ./internal/qosd
	go test -run '^$$' -fuzz '^FuzzParseScheme$$' -fuzztime 60s ./internal/scheme
	go test -run '^$$' -fuzz '^FuzzInstance$$' -fuzztime 60s ./internal/online
	go run ./cmd/qcomp -check -queues 2 -buffers 1,2,3 -n 50
	go run ./cmd/qcomp -check -queues 4 -buffers 1,2,3 -n 50
	@set -e; go build -o /tmp/bufqos-qsize ./cmd/qsize; \
	for s in $$(seq 1 20); do \
		/tmp/bufqos-qsize -check -flows 64,128,256 -rules bdp/sqrtn \
			-schemes fifo+none -duration 4 -seed $$s >/dev/null \
			|| { echo "√n floor failed at qsize -seed $$s"; exit 1; }; \
	done; echo "√n floor held over seeds 1-20"
	@echo "== broken-threshold sweep (must fail)"; \
	if go run ./cmd/qfuzz -n 10 -duration 2s -seed 1 -threshold-scale 0.9 \
		-out /tmp/bufqos-broken-repros >/dev/null; then \
		echo "qfuzz -threshold-scale 0.9 did not fail: necessity lost"; exit 1; \
	else echo "weakened thresholds correctly caught"; fi

# Competitive-analysis gate: the default qcomp sweep must hold every
# proven bound (-check exits 1 otherwise), and two passes at different
# worker counts must produce byte-identical reports. CI runs this on
# every push; the committed BENCH_competitive.json is the same sweep.
comp-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qcomp ./cmd/qcomp; \
	/tmp/bufqos-qcomp -check -workers 1 -out /tmp/bufqos-comp-1.json; \
	/tmp/bufqos-qcomp -check -workers 4 -out /tmp/bufqos-comp-4.json; \
	c1=$$(sha256sum /tmp/bufqos-comp-1.json | cut -d' ' -f1); \
	c4=$$(sha256sum /tmp/bufqos-comp-4.json | cut -d' ' -f1); \
	if [ "$$c1" != "$$c4" ]; then \
		echo "comp-smoke: worker-1 and worker-4 reports diverge"; \
		diff /tmp/bufqos-comp-1.json /tmp/bufqos-comp-4.json; exit 1; \
	fi; \
	if ! cmp -s /tmp/bufqos-comp-1.json BENCH_competitive.json; then \
		echo "comp-smoke: committed BENCH_competitive.json is stale"; \
		echo "regenerate with: go run ./cmd/qcomp -out BENCH_competitive.json -check"; \
		exit 1; \
	fi; \
	echo "comp-smoke: ok (sha256 $$c1)"

# Buffer-sizing gate: the default qsize sweep at worker counts 1 and 4
# must produce byte-identical reports, the √n utilization floor must
# hold (-check exits 1 otherwise), and the committed BENCH_sizing.json
# must match a fresh run; a stale one prints its first differing lines.
# CI runs this on every push.
sizing-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qsize ./cmd/qsize; \
	/tmp/bufqos-qsize -check -workers 1 -out /tmp/bufqos-sizing-1.json >/dev/null; \
	/tmp/bufqos-qsize -check -workers 4 -out /tmp/bufqos-sizing-4.json >/dev/null; \
	c1=$$(sha256sum /tmp/bufqos-sizing-1.json | cut -d' ' -f1); \
	c4=$$(sha256sum /tmp/bufqos-sizing-4.json | cut -d' ' -f1); \
	if [ "$$c1" != "$$c4" ]; then \
		echo "sizing-smoke: worker-1 and worker-4 reports diverge"; \
		diff /tmp/bufqos-sizing-1.json /tmp/bufqos-sizing-4.json; exit 1; \
	fi; \
	if ! cmp -s /tmp/bufqos-sizing-1.json BENCH_sizing.json; then \
		echo "sizing-smoke: committed BENCH_sizing.json is stale (< committed, > fresh):"; \
		diff BENCH_sizing.json /tmp/bufqos-sizing-1.json | head -20 || true; \
		echo "regenerate with: go run ./cmd/qsize -out BENCH_sizing.json -check"; \
		echo "then refresh the EXPERIMENTS.md tables: go run ./cmd/qsize -md BENCH_sizing.json"; \
		exit 1; \
	fi; \
	echo "sizing-smoke: ok (sha256 $$c1)"

# Figure gate: all 13 figures on a reduced sweep must come out
# byte-identical at worker counts 1 and 4 and equal to the committed
# testdata/figures_quick.txt (generated before the figures became views
# over shared runs, so it also pins that the sharing changes no number),
# then every codified shape claim must hold. CI runs this on every push.
figs-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qsim ./cmd/qsim; \
	go build -o /tmp/bufqos-qcheck ./cmd/qcheck; \
	for w in 1 4; do \
		/tmp/bufqos-qsim -fig all -runs 2 -duration 6 -warmup 0.6 \
			-buffers 500,1000,2000 -workers $$w > /tmp/bufqos-figs-$$w.txt; \
	done; \
	c1=$$(sha256sum /tmp/bufqos-figs-1.txt | cut -d' ' -f1); \
	c4=$$(sha256sum /tmp/bufqos-figs-4.txt | cut -d' ' -f1); \
	if [ "$$c1" != "$$c4" ]; then \
		echo "figs-smoke: worker-1 and worker-4 figures diverge"; \
		diff /tmp/bufqos-figs-1.txt /tmp/bufqos-figs-4.txt; exit 1; \
	fi; \
	if ! cmp -s /tmp/bufqos-figs-1.txt testdata/figures_quick.txt; then \
		echo "figs-smoke: figures differ from testdata/figures_quick.txt"; \
		diff /tmp/bufqos-figs-1.txt testdata/figures_quick.txt; exit 1; \
	fi; \
	/tmp/bufqos-qcheck -quick; \
	echo "figs-smoke: ok (sha256 $$c1)"

# Closed-form planning gate: qosplan's three screens (Table 1's
# thresholds and lossless buffers, Table 2's hybrid on an optimized
# 3-queue grouping, and the eq. 10 curve) simulate nothing and draw no
# random number, so each stdout is pinned byte for byte: the first 16
# hex digits of its sha256 must equal its PLAN_SMOKE_SHA256 entry. A
# change that moves these bytes on purpose updates the list and records
# old -> new hash, with the reason, in CHANGES.md in the same commit.
# CI runs this on every push.
PLAN_SMOKE_SHA256 = table1:47d8b3eaaded32bc table2:1ce55491ec5eef69 \
	curve:ac7d58a0452733ab

plan-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qosplan ./cmd/qosplan; \
	for c in 'table1:-workload table1' 'table2:-workload table2 -queues 3 -optimize' 'curve:-curve'; do \
		n=$${c%%:*}; args=$${c#*:}; \
		/tmp/bufqos-qosplan $$args > /tmp/bufqos-plan-$$n.txt; \
		got=$$(sha256sum /tmp/bufqos-plan-$$n.txt | cut -c1-16); \
		want=$$(printf '%s\n' $(PLAN_SMOKE_SHA256) | sed -n "s/^$$n://p"); \
		if [ "$$got" != "$$want" ]; then \
			cat /tmp/bufqos-plan-$$n.txt; \
			echo "plan-smoke: qosplan $$args stdout sha256 $$got, want $${want:-(no entry in PLAN_SMOKE_SHA256)}"; exit 1; \
		fi; \
	done; \
	echo "plan-smoke: ok (every screen at its pinned sha256)"

# Time-series gate: qtrace is the one CLI that reads link state in
# mid-run (its samplers settle the FIFO link's computed departures
# first), so its output is pinned byte for byte: the first 16 hex
# digits of the sha256 of each stdout must equal its TRACE_SMOKE_SHA256
# entry, and so must the -metrics CSV of the threshold run with the
# kernel's sim.* columns cut (they count events, which computed
# departures do not spend). A change that moves these bytes on purpose
# updates the list and records old -> new hash, with the reason, in
# CHANGES.md in the same commit. CI runs this on every push.
TRACE_SMOKE_SHA256 = threshold:4b23fb9751ff23b2 fifo-red:e3d2d8d7e640ccd1 \
	example1:931ea028080cb3af threshold-metrics:b2e40e935ac74403

trace-smoke:
	@set -e; \
	go build -o /tmp/bufqos-qtrace ./cmd/qtrace; \
	check() { \
		got=$$(sha256sum $$2 | cut -c1-16); \
		want=$$(printf '%s\n' $(TRACE_SMOKE_SHA256) | sed -n "s/^$$1://p"); \
		if [ "$$got" != "$$want" ]; then \
			echo "trace-smoke: $$1 sha256 $$got, want $${want:-(no entry in TRACE_SMOKE_SHA256)}"; exit 1; \
		fi; \
	}; \
	/tmp/bufqos-qtrace -scheme threshold -metrics /tmp/bufqos-trace-metrics.csv > /tmp/bufqos-trace-threshold.csv; \
	check threshold /tmp/bufqos-trace-threshold.csv; \
	awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) keep[i] = $$i !~ /^sim\./ } \
		{ o = ""; for (i = 1; i <= NF; i++) if (keep[i]) o = o (o == "" ? "" : ",") $$i; print o }' \
		/tmp/bufqos-trace-metrics.csv > /tmp/bufqos-trace-threshold-metrics.csv; \
	check threshold-metrics /tmp/bufqos-trace-threshold-metrics.csv; \
	/tmp/bufqos-qtrace -scheme fifo+red > /tmp/bufqos-trace-fifo-red.csv; \
	check fifo-red /tmp/bufqos-trace-fifo-red.csv; \
	/tmp/bufqos-qtrace -example1 > /tmp/bufqos-trace-example1.csv; \
	check example1 /tmp/bufqos-trace-example1.csv; \
	echo "trace-smoke: ok (every trace at its pinned sha256)"

# Documentation drift gate: the README scheme catalogue and CLI table,
# the EXPERIMENTS.md oracle catalogue and rent ledger, the EXPERIMENTS.md
# buffer-sizing tables (pinned to BENCH_sizing.json) and the export rule
# (no exported name under internal/ that only tests use, outside
# exports_test.go's allowlist) are tied to the code by tests; this
# target runs exactly those.
docs-check:
	go test -run 'TestReadmeSchemeCatalogue|TestReadmeCLITable|TestExperimentsOracleCatalogue|TestExperimentsRentLedger|TestExperimentsSizingTable|TestNoTestOnlyExports' .
