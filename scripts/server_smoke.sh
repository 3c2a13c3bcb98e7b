#!/bin/sh
# End-to-end nf2d smoke: start `nfr_cli serve` on a free loopback port,
# run a scripted client session against it, and assert both the rows
# that come back and a clean drain on shutdown. Run via `make
# servesmoke` (after `dune build`) or directly from the repo root.
set -eu

CLI=_build/default/bin/nfr_cli.exe
[ -x "$CLI" ] || { echo "server_smoke: $CLI not built" >&2; exit 1; }

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    [ -n "$server_pid" ] && kill "$server_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT INT TERM

cat > "$workdir/sc.csv" <<'EOF'
Student:string,Course:string
s1,c1
s1,c2
s2,c1
EOF

# start_server: serve sc.csv with the shared WAL directory in the
# background; sets $server_pid and, once bound, $port (the server
# prints "nf2d listening on 127.0.0.1:PORT ..." once bound).
start_server() {
    "$CLI" serve --load "sc=$workdir/sc.csv" --port 0 --wal-dir "$workdir" \
        > "$workdir/server.log" 2>&1 &
    server_pid=$!
    port=""
    for _ in $(seq 1 50); do
        port=$(sed -n 's/^nf2d listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
            "$workdir/server.log")
        [ -n "$port" ] && break
        kill -0 "$server_pid" 2>/dev/null || {
            echo "server_smoke: server died at startup:" >&2
            cat "$workdir/server.log" >&2
            exit 1
        }
        sleep 0.1
    done
    [ -n "$port" ] || { echo "server_smoke: no listening line" >&2; exit 1; }
}

# expect_student S WHEN: the restarted server must serve student S.
expect_student() {
    out=$("$CLI" connect --port "$port" -e "select * from sc where Student = '$1'")
    echo "$out" | grep -q "$1" || {
        echo "server_smoke: $1 lost across $2:" >&2
        echo "$out" >&2
        exit 1
    }
}

start_server
echo "server_smoke: serving on port $port"

# One scripted session: DML + query; the reply must contain the
# freshly inserted student and the request summary.
out=$("$CLI" connect --port "$port" \
    -e "insert into sc values ('s3', 'c2'); select * from sc")
echo "$out" | grep -q "s3" || {
    echo "server_smoke: inserted row missing from SELECT reply:" >&2
    echo "$out" >&2
    exit 1
}
echo "$out" | grep -q "ok: 2 statement(s)" || {
    echo "server_smoke: request summary missing" >&2
    echo "$out" >&2
    exit 1
}

# The metrics dump must account for exactly those statements.
"$CLI" connect --port "$port" --metrics | grep -q "queries.total 2" || {
    echo "server_smoke: METRICS dump missing queries.total" >&2
    exit 1
}

# Graceful shutdown: drain, flush the WAL, exit 0.
"$CLI" connect --port "$port" --shutdown
wait "$server_pid"
status=$?
server_pid=""
[ "$status" -eq 0 ] || {
    echo "server_smoke: server exited $status" >&2
    cat "$workdir/server.log" >&2
    exit 1
}
grep -q "nf2d drained; bye" "$workdir/server.log" || {
    echo "server_smoke: drain banner missing" >&2
    exit 1
}
[ -s "$workdir/sc.wal" ] || [ -e "$workdir/sc.wal" ] || {
    echo "server_smoke: WAL file missing" >&2
    exit 1
}

# Graceful restart: the drain saved sc.snap, so the same command line
# recovers the acknowledged insert from the directory, not the CSV.
start_server
expect_student s3 "a graceful restart"

# Crash restart: an insert acknowledged before a SIGKILL survives it.
"$CLI" connect --port "$port" -e "insert into sc values ('s4', 'c1')" >/dev/null
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
start_server
expect_student s3 "a crash restart"
expect_student s4 "a crash restart"

# A write the restarted server acknowledges survives the next crash.
"$CLI" connect --port "$port" -e "insert into sc values ('s5', 'c2')" >/dev/null
kill -9 "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
start_server
expect_student s4 "a second crash restart"
expect_student s5 "a second crash restart"
"$CLI" connect --port "$port" --shutdown >/dev/null
wait "$server_pid"
server_pid=""

echo "server_smoke: OK"
