.PHONY: all build test crashtest servetest servesmoke obstest obssmoke obsbench obsgate histtest histbench netbench netsmoke repltest replbench replsmoke plannertest plannerbench txntest txnbench pooltest poolbench viewtest viewbench viewsmoke bench benchsmoke reports timings examples doc clean loc

# Fixed seed so a failing matrix cell reproduces byte-for-byte;
# override with CRASH_SEED=n make crashtest.
CRASH_SEED ?= 42

all: build

build:
	dune build @all

test:
	dune runtest

test-force:
	dune runtest --force --no-buffer

crashtest:
	CRASH_SEED=$(CRASH_SEED) dune exec test/test_crash.exe

# The nf2d server: protocol fuzz + session robustness, the
# 32-connection soak, and the CLI batch-mode exit-status regressions.
servetest:
	dune exec test/test_server.exe
	ALCOTEST_SLOW=1 dune exec test/test_netsoak.exe
	dune exec test/test_cli.exe

# End-to-end smoke over a real serve/connect pair on loopback.
servesmoke: build
	scripts/server_smoke.sh

# Observability: registry/span property tests, the end-to-end
# Prometheus scrape smoke, and the tracing-overhead bench
# (writes BENCH_obs.json).
obstest:
	dune exec test/test_obs.exe

obssmoke: build
	scripts/obs_smoke.sh

obsbench:
	dune exec bench/main.exe -- obs

# Overhead gate: exits non-zero when tracing overhead exceeds
# max(5%, the measured run-to-run noise floor).
obsgate:
	dune exec bench/main.exe -- obsgate

# Metrics history: downsampling cascade + system tables + stall
# watchdog tests, and the self-monitoring cost bench
# (writes BENCH_hist.json).
histtest:
	dune exec test/test_history.exe

histbench:
	dune exec bench/main.exe -- hist

netbench:
	dune exec bench/main.exe -- net

netsmoke:
	dune exec bench/main.exe -- netsmoke

# Replication: the in-process bootstrap/catch-up/victim-kill/promotion
# suite, the global-commit-manifest crash matrix, and the 3-node soak
# that asserts byte-identical replicas after the drain.
repltest:
	dune exec test/test_repl.exe
	CRASH_SEED=$(CRASH_SEED) dune exec test/test_crash.exe -- test manifest
	ALCOTEST_SLOW=1 dune exec test/test_netsoak.exe

# Replication bench: primary throughput alone vs with a live replica,
# drain time and steady-state lag (writes BENCH_repl.json). replsmoke
# is the fast CI variant.
replbench:
	dune exec bench/main.exe -- repl

replsmoke:
	dune exec bench/main.exe -- replsmoke

# Cost-based planner: ANALYZE statistics, plan-cache behaviour and the
# access-path regressions.
plannertest:
	dune exec test/test_planner.exe

# Planner micro-bench: plan-cache speedup and estimation error on a
# Zipf-skewed table (writes BENCH_planner.json).
plannerbench:
	dune exec bench/main.exe -- planner

# Transactions: torn-transaction crash matrix + byte-identical
# rollback, concurrent-session isolation/conflict tests, differential
# BEGIN/COMMIT/ROLLBACK coverage, CLI --txn exit codes, and the
# committed-writes-only planner regressions.
txntest:
	CRASH_SEED=$(CRASH_SEED) dune exec test/test_crash.exe -- test txn
	dune exec test/test_server.exe -- test txn
	dune exec test/test_physical.exe -- test differential
	dune exec test/test_cli.exe -- test txn
	dune exec test/test_planner.exe -- test cache

# Transaction micro-bench: autocommit vs batched-transaction write
# throughput and abort overhead (writes BENCH_txn.json).
txnbench:
	dune exec bench/main.exe -- txn

# Buffer pool: LRU/ledger property tests, the heap integration
# invariants, and the planner's cold-scan -> cached-probe flip.
pooltest:
	dune exec test/test_pool.exe

# Buffer-pool micro-bench: Zipf hit rate, scan throughput, and the
# repeated-probe plan flip (writes BENCH_pool.json).
poolbench:
	dune exec bench/main.exe -- pool

# Incremental views + CDC: grammar/semantics on the executor, the
# incremental==renest property, definition-WAL durability, the forked
# two-subscriber CDC stream test, and the maintenance crash windows.
viewtest:
	ALCOTEST_SLOW=1 dune exec test/test_views.exe
	CRASH_SEED=$(CRASH_SEED) dune exec test/test_crash.exe -- test views

# View-maintenance bench: per-insert incremental cost vs full renest
# across 10^4..10^6 base rows (writes BENCH_views.json). viewsmoke is
# the fast CI variant at 10^3..10^4.
viewbench:
	dune exec bench/main.exe -- views

viewsmoke:
	dune exec bench/main.exe -- viewsmoke

bench:
	dune exec bench/main.exe

# CI subset: no Bechamel timing runs, just the reports that drive the
# physical executor end to end (E9 + per-operator EXPLAIN ANALYZE).
benchsmoke:
	dune exec bench/main.exe -- smoke

reports:
	dune exec bench/main.exe -- reports

timings:
	dune exec bench/main.exe -- timings

examples:
	dune exec examples/quickstart.exe
	dune exec examples/university.exe
	dune exec examples/bibliography.exe
	dune exec examples/design_advisor.exe
	dune exec examples/prerequisites.exe

doc:
	dune build @doc

clean:
	dune clean

loc:
	@find lib bin examples test bench -name '*.ml' -o -name '*.mli' | xargs wc -l | tail -1
