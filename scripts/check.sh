#!/usr/bin/env bash
# Local CI gate: formatting, lints, rustdoc, the tier-1 build+test, the
# benchmark's own build+test (perfbench/), a tiny-scale experiments smoke that validates the emitted BENCH_*.json
# reports (parse + determinism), a default-scale experiments run diffed
# against its checked-in reference, a loopback serving smoke that
# diffs served statistics against the offline oracle (SERVING.md), and
# a .nts snapshot gate (save/verify/warm-serve/drain round trip plus
# corruption refusal).
# Run from anywhere inside the repo.
set -euo pipefail

cd "$(dirname "$0")/.."

say() { printf '\n== %s ==\n' "$*"; }

# Every temp dir and background process the gates start is recorded here.
# On any exit, pass or fail, `cleanup` kills the recorded processes, reaps
# them, then removes the dirs, so a failing gate leaves no server running.
tmp_dirs=()
bg_pids=()
cleanup() {
    local pid
    for pid in ${bg_pids[@]+"${bg_pids[@]}"}; do
        kill -KILL "$pid" 2>/dev/null || true
    done
    for pid in ${bg_pids[@]+"${bg_pids[@]}"}; do
        wait "$pid" 2>/dev/null || true
    done
    rm -rf ${tmp_dirs[@]+"${tmp_dirs[@]}"}
}
trap cleanup EXIT
# mktmp <var>: a fresh temp dir, recorded for cleanup, stored in <var>.
mktmp() {
    local dir
    dir="$(mktemp -d)"
    tmp_dirs+=("$dir")
    printf -v "$1" '%s' "$dir"
}
# start_bg <pid-var> <addr-var> <what> <out> <err> <cmd>...: runs <cmd> in
# the background (stdout to <out>, stderr to <err>), records its pid for
# cleanup and in <pid-var>, and waits up to 10 s for the first loopback
# address it prints, stored in <addr-var>; fails naming <what> if none
# appears.
start_bg() {
    local pid_var="$1" addr_var="$2" what="$3" out="$4" err="$5" _pid _addr=""
    shift 5
    "$@" >"$out" 2>"$err" &
    _pid=$!
    bg_pids+=("$_pid")
    for _ in $(seq 1 100); do
        _addr="$(grep -oE '127\.0\.0\.1:[0-9]+' "$out" 2>/dev/null | head -1 || true)"
        [ -n "$_addr" ] && break
        sleep 0.1
    done
    [ -n "$_addr" ] || { echo "$what never printed its bound address"; exit 1; }
    printf -v "$pid_var" '%s' "$_pid"
    printf -v "$addr_var" '%s' "$_addr"
}

say "cargo fmt --check"
cargo fmt --all -- --check

say "cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

say "rustdoc -D warnings"
# --lib: the root `ntp` library and the `ntp` binary would both document
# into target/doc/ntp, and cargo refuses the collision.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib --offline

say "tier-1: cargo build --release && cargo test -q"
cargo build --release --workspace
cargo test -q --workspace

say "benchmark: perfbench builds and passes its own tests"
# perfbench is a workspace of its own that builds nine crates by path
# (bench, cluster, core, hash, serve, sim, telemetry, trace, workloads),
# so an API change there can break the benchmark while every workspace
# gate still passes. Its Cargo.lock pins the dependency edges among
# them, and --locked refuses to rewrite it.
cargo test --release --offline --locked --manifest-path perfbench/Cargo.toml || {
    status=$?
    echo "perfbench failed; if --locked refused to update perfbench/Cargo.lock, a dependency was added or removed between the crates it builds, and only a change to the benchmark may update that file" >&2
    exit "$status"
}

say "differential-verification sweep (fixed seed, 64 points/oracle)"
# VERIFICATION.md documents the oracles and the seed protocol. Nonzero
# exit means a divergence; the report names the seed/case to reproduce.
cargo run --release -q -p ntp-cli -- verify --seed 0xC0FFEE --points 64

say "tiny-scale experiments smoke (--json), serial vs 4 threads"
mktmp out_a
mktmp out_b
# Run A serial, run B on a 4-wide worker pool: stdout and the stripped
# JSON must be byte-identical regardless of thread count.
NTP_SCALE=tiny NTP_DETERMINISTIC=1 NTP_THREADS=1 \
    cargo run --release -q -p ntp-bench --bin experiments -- --json "$out_a" \
    >"$out_a/stdout.txt"
NTP_SCALE=tiny NTP_DETERMINISTIC=1 NTP_THREADS=4 \
    cargo run --release -q -p ntp-bench --bin experiments -- --json "$out_b" \
    >"$out_b/stdout.txt"

say "determinism: stdout identical at 1 vs 4 threads"
if ! diff "$out_a/stdout.txt" "$out_b/stdout.txt" >/dev/null; then
    echo "stdout differs between NTP_THREADS=1 and NTP_THREADS=4"
    exit 1
fi
echo "stdout byte-identical"

say "validating BENCH_*.json (parse + required sections)"
count=0
for f in "$out_a"/BENCH_*.json; do
    # Every miss belongs to exactly one misprediction streak.
    jq -e '.manifest.name and .phases_ms and .predictor.stats.mispredict_pct != null
           and .mispredict_streaks.sum == (.predictor.stats.predictions - .predictor.stats.correct)' \
        "$f" >/dev/null || { echo "invalid report: $f"; exit 1; }
    count=$((count + 1))
done
[ "$count" -ge 6 ] || { echo "expected >=6 reports, got $count"; exit 1; }
echo "$count reports parsed"

say "determinism: 1-thread and 4-thread reports agree modulo volatile fields"
strip='del(.phases_ms, .throughput, .manifest.git_rev, .manifest.host, .manifest.unix_time)'
for f in "$out_a"/BENCH_*.json; do
    g="$out_b/$(basename "$f")"
    if ! diff <(jq -S "$strip" "$f") <(jq -S "$strip" "$g") >/dev/null; then
        echo "non-deterministic report: $(basename "$f")"
        exit 1
    fi
done
echo "all reports byte-identical after stripping volatiles"

say "paper numbers: default-scale experiments stdout equals the reference"
# The paper's numbers are diffed against scripts/experiments.default.txt,
# not copied by hand: default scale, 2 threads, no trace cache (about
# 12 s wall on a 2-core host). A change that moves a paper number
# updates the reference and EXPERIMENTS.md in the same diff.
mktmp out_ref
env -u NTP_SCALE NTP_TRACE_CACHE=0 NTP_THREADS=2 \
    cargo run --release -q -p ntp-bench --bin experiments >"$out_ref/stdout.txt"
if ! diff scripts/experiments.default.txt "$out_ref/stdout.txt" >"$out_ref/diff.txt"; then
    cat "$out_ref/diff.txt"
    echo "tables that moved:"
    # Each hunk ("12,14c12,15", "30d29", "40a41,42") starts at a
    # reference line; name the last `==== ... ====` heading at or above it.
    { grep -oE '^[0-9]+' "$out_ref/diff.txt" || true; } \
        | awk 'NR == FNR { if ($0 ~ /^==== .* ====$/) head[FNR] = $0; next }
               { for (k = $1; k > 0 && !(k in head); k--) {}
                 if (k in head && !(k in seen)) { seen[k] = 1; print "  " head[k] } }' \
            scripts/experiments.default.txt -
    echo "default-scale experiments stdout differs from scripts/experiments.default.txt"
    exit 1
fi
echo "$(wc -l <"$out_ref/stdout.txt") lines byte-identical to the reference"

say "CLI report round-trip"
cargo run --release -q -p ntp-cli -- report @compress --budget 300000 --json - \
    | jq -e '.capture.icount > 0
             and .mispredict_streaks.sum == (.predictor.stats.predictions - .predictor.stats.correct)' \
        >/dev/null
echo "ok"

say "trace cache: cold vs warm runs are byte-identical"
mktmp cache_dir
mktmp out_cold
mktmp out_warm
# Cold run populates the cache; warm run must load every artifact from it,
# skip the simulate phase, and emit byte-identical stdout and stripped JSON.
NTP_SCALE=tiny NTP_DETERMINISTIC=1 NTP_THREADS=1 NTP_TRACE_CACHE="$cache_dir" \
    cargo run --release -q -p ntp-bench --bin experiments -- --json "$out_cold" \
    >"$out_cold/stdout.txt"
NTP_SCALE=tiny NTP_DETERMINISTIC=1 NTP_THREADS=1 NTP_TRACE_CACHE="$cache_dir" \
    cargo run --release -q -p ntp-bench --bin experiments -- --json "$out_warm" \
    >"$out_warm/stdout.txt"
if ! diff "$out_cold/stdout.txt" "$out_warm/stdout.txt" >/dev/null; then
    echo "stdout differs between cold and warm cache runs"
    exit 1
fi
echo "stdout byte-identical"
for f in "$out_cold"/BENCH_*.json; do
    g="$out_warm/$(basename "$f")"
    if ! diff <(jq -S "$strip" "$f") <(jq -S "$strip" "$g") >/dev/null; then
        echo "cold/warm report mismatch: $(basename "$f")"
        exit 1
    fi
done
echo "all reports byte-identical after stripping volatiles"
# The warm run must actually have used the cache: every benchmark a hit,
# no capture pass, and a simulate-phase speedup recorded in throughput.
jq -e '.throughput.trace_cache.hits >= 1 and .throughput.trace_cache.misses == 0
       and (.phases_ms.simulate == null or .phases_ms.simulate == 0)' \
    "$out_warm"/BENCH_compress.json >/dev/null \
    || { echo "warm run did not load from the cache"; exit 1; }
cold_ms=$(jq '.phases_ms.simulate' "$out_cold"/BENCH_compress.json)
warm_ms=$(jq '.phases_ms.cache_load // 0' "$out_warm"/BENCH_compress.json)
echo "cold simulate ${cold_ms} ms vs warm cache_load ${warm_ms} ms"

say "trace cache: audit passes, corruption falls back to re-capture"
NTP_SCALE=tiny NTP_TRACE_CACHE="$cache_dir" \
    cargo run --release -q -p ntp-cli -- capture --verify >/dev/null
echo "audit ok"
# Flip the format-version byte of one cache file: the loader must refuse
# it, warn, re-capture, and still produce identical stdout.
for corrupt in "$cache_dir"/compress-*.ntc; do
    dd if=/dev/zero of="$corrupt" bs=1 seek=4 count=1 conv=notrunc 2>/dev/null
done
if NTP_SCALE=tiny NTP_TRACE_CACHE="$cache_dir" \
    cargo run --release -q -p ntp-cli -- capture --verify >/dev/null 2>&1; then
    echo "audit failed to flag a corrupted cache file"
    exit 1
fi
echo "audit flags corruption"
mktmp out_fb
NTP_SCALE=tiny NTP_DETERMINISTIC=1 NTP_THREADS=1 NTP_TRACE_CACHE="$cache_dir" \
    cargo run --release -q -p ntp-bench --bin experiments -- --json "$out_fb" \
    >"$out_fb/stdout.txt" 2>"$out_fb/stderr.txt"
if ! diff "$out_cold/stdout.txt" "$out_fb/stdout.txt" >/dev/null; then
    echo "stdout differs after corrupt-file fallback"
    exit 1
fi
grep -q '\[cache\].*refused.*re-capturing' "$out_fb/stderr.txt" \
    || { echo "missing re-capture warning on corrupt cache file"; exit 1; }
jq -e '.throughput.trace_cache.invalid >= 1' "$out_fb"/BENCH_compress.json >/dev/null \
    || { echo "invalid-file counter not recorded"; exit 1; }
echo "corrupt file refused with warning; fallback output byte-identical"

say "serving smoke: loopback serve + loadgen + live metrics plane"
# SERVING.md documents the protocol and this recipe. An ephemeral-port
# server (2 shard workers), a fixed loadgen schedule (4 sessions over
# the cached tiny-scale suite, 2 000 updates/s for 1 s, which sheds
# nothing), an exact served-vs-oracle diff, then a final
# `ntp top --once --json --shutdown` snapshot whose counters must equal
# the loadgen totals, and the graceful drain it starts.
ntp_bin=target/release/ntp
mktmp out_srv

# Runs one serve+loadgen replay; leaves the server running, with its
# address in $addr and pid in $serve_pid.
serve_replay() {
    local tag="$1"
    start_bg serve_pid addr "ntp serve" "$out_srv/serve$tag.txt" "$out_srv/serve$tag.err" \
        "$ntp_bin" serve --addr 127.0.0.1:0 --workers 2
    NTP_SCALE=tiny NTP_TRACE_CACHE="$cache_dir" \
        "$ntp_bin" loadgen --addr "$addr" --sessions 4 --clients 2 \
        --rate 2000 --duration 1 --zipf 1.0 --seed 0x5EED \
        --json "$out_srv/loadgen$tag.json" >"$out_srv/loadgen$tag.txt" \
        || { echo "loadgen failed (served != oracle?)"; cat "$out_srv/loadgen$tag.txt"; exit 1; }
}

serve_replay 1
echo "server up on $addr"
jq -e '.all_match == true and .busy == 0 and .applied == .offered
       and (.sessions | length) == 4
       and ([.sessions[] | select(.matches_oracle)] | length) == 4
       and .latency_us.count >= .applied' \
    "$out_srv/loadgen1.json" >/dev/null \
    || { echo "loadgen report failed validation"; cat "$out_srv/loadgen1.json"; exit 1; }
echo "4 sessions served, nothing shed; statistics identical to the lockstep oracle"

"$ntp_bin" top --addr "$addr" --once >"$out_srv/top.txt"
grep -q '^total' "$out_srv/top.txt" \
    || { echo "ntp top table missing the total row"; cat "$out_srv/top.txt"; exit 1; }
# A first poll's QPS is the rate since start (counter deltas against an
# empty snapshot at uptime 0), so after a second of load it is positive.
awk '$1 == "total" && $2 ~ /^[0-9]+\.[0-9]$/ && $2 > 0 { ok = 1 } END { exit !ok }' \
    "$out_srv/top.txt" \
    || { echo "ntp top total row lacks a positive, finite QPS"; cat "$out_srv/top.txt"; exit 1; }
# `ntp top --shutdown` drains the server after the final poll.
"$ntp_bin" top --addr "$addr" --once --json --shutdown >"$out_srv/top1.json"
# That snapshot's counters must equal the loadgen oracle totals exactly:
# the observability plane may not drop or invent a single frame.
applied=$(jq '.applied' "$out_srv/loadgen1.json")
jq -e --argjson a "$applied" '
    .total.counters.predictions == $a
    and .total.counters."frames.update" == $a
    and .total.counters."frames.hello" == 4
    and .total.counters."frames.stats" == 4
    and ([.shard0, .shard1 | .counters.predictions] | add) == $a
    and ([.shard0, .shard1 | .counters."frames.update"] | add) == $a
    and .server.counters."protocol.errors" == 0' \
    "$out_srv/top1.json" >/dev/null \
    || { echo "snapshot counters disagree with the loadgen oracle totals"; cat "$out_srv/top1.json"; exit 1; }
echo "snapshot counters equal the loadgen totals ($applied predictions and updates)"
wait "$serve_pid" || { echo "ntp serve exited nonzero"; exit 1; }
grep -q 'drained: 4 sessions' "$out_srv/serve1.txt" \
    || { echo "server summary missing the 4 drained sessions"; cat "$out_srv/serve1.txt"; exit 1; }
grep -q 'shard 1:' "$out_srv/serve1.txt" \
    || { echo "drain summary lost per-shard attribution"; cat "$out_srv/serve1.txt"; exit 1; }
echo "graceful shutdown drained all sessions with per-shard attribution"

say "serving determinism: stripped top snapshots identical across replays"
# Re-run the identical replay against a fresh server: after stripping
# wall-clock-derived sections (server uptime, latency histograms,
# busy/idle time — see OBSERVABILITY.md), the `ntp top
# --once --json` snapshot must be byte-identical.
serve_replay 2
"$ntp_bin" top --addr "$addr" --once --json --shutdown >"$out_srv/top2.json"
wait "$serve_pid" || { echo "ntp serve exited nonzero on replay 2"; exit 1; }
strip_top='del(.server)
    | map_values(del(.gauges, .histograms)
        | .counters |= del(."time.busy_us", ."time.idle_us", ."busy.rejections", ."drain.batched", ."drain.coalesced"))'
if ! diff <(jq "$strip_top" "$out_srv/top1.json") \
          <(jq "$strip_top" "$out_srv/top2.json"); then
    echo "stripped top snapshots differ between identical replays"
    exit 1
fi
echo "stripped top snapshots byte-identical"

say "overload smoke: shed load, exact oracle, clean drain"
# SERVING.md "The load generator". A deliberately tiny server (1 worker,
# queue depth 1) offered far more than it can apply must shed the
# excess as Busy without retries, keep the lockstep oracle exact over
# the applied subsequence, report a sane sojourn tail, and still drain
# gracefully afterwards.
start_bg serve_pid addr "ntp serve" "$out_srv/serve_ol.txt" "$out_srv/serve_ol.err" \
    "$ntp_bin" serve --addr 127.0.0.1:0 --workers 1 --queue-depth 1
NTP_SCALE=tiny NTP_TRACE_CACHE="$cache_dir" \
    "$ntp_bin" loadgen --addr "$addr" --sessions 2 --clients 2 \
    --rate 20000 --duration 1 --zipf 1.0 --seed 0x5EED \
    --json "$out_srv/openloop.json" >"$out_srv/openloop.txt" \
    || { echo "overload loadgen failed (oracle divergence?)"; cat "$out_srv/openloop.txt"; exit 1; }
# Overload must actually shed (busy > 0), the books must balance
# (applied + busy == offered), the oracle must hold, and the p99.9
# sojourn must stay under 5 s — queueing, not deadlock.
jq -e '.all_match == true and .busy > 0 and .applied > 0
       and .applied + .busy == .offered
       and .latency_us.p999 < 5000000' \
    "$out_srv/openloop.json" >/dev/null \
    || { echo "overload report failed validation"; cat "$out_srv/openloop.json"; exit 1; }
"$ntp_bin" top --addr "$addr" --once --shutdown >/dev/null
wait "$serve_pid" || { echo "ntp serve exited nonzero after overload"; exit 1; }
grep -q 'drained: 2 sessions' "$out_srv/serve_ol.txt" \
    || { echo "overloaded server did not drain cleanly"; cat "$out_srv/serve_ol.txt"; exit 1; }
printf 'offered %s, applied %s, busy %s (digest %s); clean drain\n' \
    "$(jq '.offered' "$out_srv/openloop.json")" \
    "$(jq '.applied' "$out_srv/openloop.json")" \
    "$(jq '.busy' "$out_srv/openloop.json")" \
    "$(jq -r '.schedule_digest' "$out_srv/openloop.json")"

say "snapshot gate: save -> verify -> warm-serve -> drain round trip"
# SERVING.md "Predictor state snapshots". An offline-trained .nts must
# verify to the exact JSON it was saved with, warm-start a server, and
# come back byte-identical from an untouched drain (the codec encodes
# deterministically, so cmp(1) is the whole comparison). A corrupted
# copy must be refused by verify *and* fall back to a cold start.
mktmp out_snap
"$ntp_bin" snapshot save @compress -o "$out_snap/seed.nts" --budget 300000 \
    --json "$out_snap/save.json" 2>/dev/null
"$ntp_bin" snapshot verify "$out_snap/seed.nts" \
    --json "$out_snap/verify.json" 2>/dev/null
if ! diff <(jq -S . "$out_snap/save.json") <(jq -S . "$out_snap/verify.json"); then
    echo "snapshot verify re-derived different stats than save reported"
    exit 1
fi
jq -e '.session_count == 1 and .sessions[0].predictions > 0' \
    "$out_snap/save.json" >/dev/null \
    || { echo "snapshot save trained nothing"; exit 1; }
echo "offline save/verify JSON identical"

mkdir "$out_snap/drain"
start_bg serve_pid addr "warm ntp serve" "$out_snap/serve.txt" "$out_snap/serve.err" \
    "$ntp_bin" serve --addr 127.0.0.1:0 --workers 1 \
    --warm "$out_snap/seed.nts" --snapshot-on-drain "$out_snap/drain"
"$ntp_bin" top --addr "$addr" --once --shutdown >/dev/null
wait "$serve_pid" || { echo "warm ntp serve exited nonzero"; cat "$out_snap/serve.err"; exit 1; }
grep -q '1 warmed, 1 snapshotted' "$out_snap/serve.txt" \
    || { echo "drain summary missing warm/snapshot attribution"; cat "$out_snap/serve.txt"; exit 1; }
cmp "$out_snap/seed.nts" "$out_snap/drain/shard0.nts" \
    || { echo "untouched warm session did not round-trip byte-identically"; exit 1; }
echo "warm-serve drain snapshot byte-identical to the seed"

cp "$out_snap/seed.nts" "$out_snap/bad.nts"
# Flip (not just overwrite) one byte so the corruption is guaranteed.
byte=$(od -An -tu1 -j200 -N1 "$out_snap/bad.nts" | tr -d ' ')
printf "$(printf '\\%03o' $(( (byte + 1) % 256 )))" \
    | dd of="$out_snap/bad.nts" bs=1 seek=200 count=1 conv=notrunc 2>/dev/null
if "$ntp_bin" snapshot verify "$out_snap/bad.nts" >/dev/null 2>&1; then
    echo "snapshot verify accepted a corrupted file"
    exit 1
fi
start_bg serve_pid addr "cold-fallback ntp serve" \
    "$out_snap/serve_bad.txt" "$out_snap/serve_bad.err" \
    "$ntp_bin" serve --addr 127.0.0.1:0 --workers 1 --warm "$out_snap/bad.nts"
"$ntp_bin" top --addr "$addr" --once --shutdown >/dev/null
wait "$serve_pid" || { echo "cold-fallback ntp serve exited nonzero"; exit 1; }
grep -q 'warm-start refused, starting cold' "$out_snap/serve_bad.err" \
    || { echo "corrupt snapshot did not log a warm-start refusal"; cat "$out_snap/serve_bad.err"; exit 1; }
grep -q '0 warmed' "$out_snap/serve_bad.txt" \
    || { echo "corrupt snapshot warmed sessions anyway"; cat "$out_snap/serve_bad.txt"; exit 1; }
echo "corrupt snapshot refused by verify and by warm start (cold fallback)"

say "cluster gate: router + 2 backends, live migration + SIGTERM failover"
# SERVING.md "Cluster mode". Two ephemeral backends with drain-snapshot
# dirs behind an ntp route router, a Zipf open-loop load driven through
# the router, one scripted live migration (session 0 to whichever
# backend it is not on, after 40 of its frames), one SIGTERM-driven
# graceful backend failover mid-run — and the loadgen oracle must still
# match field for field, because graceful failover restores every
# session from the backend's drain snapshots.
mktmp out_cl
mkdir "$out_cl/b0" "$out_cl/b1"

# Two backends: sets b0_pid/b0_addr and b1_pid/b1_addr.
for tag in b0 b1; do
    start_bg "${tag}_pid" "${tag}_addr" "backend $tag" "$out_cl/$tag.txt" "$out_cl/$tag.err" \
        "$ntp_bin" serve --addr 127.0.0.1:0 --workers 2 --snapshot-on-drain "$out_cl/$tag"
done

start_bg route_pid raddr "ntp route" "$out_cl/route.txt" "$out_cl/route.err" \
    "$ntp_bin" route --addr 127.0.0.1:0 \
    --backends "$b0_addr,$b1_addr" \
    --snapshot-dirs "$out_cl/b0,$out_cl/b1" \
    --probe-interval 0.2 --migrate 0:next:40
echo "router up on $raddr fronting $b0_addr + $b1_addr"

# Zipf open-loop load through the router, in the background so a backend
# can be torn down mid-run.
NTP_SCALE=tiny NTP_TRACE_CACHE="$cache_dir" \
    "$ntp_bin" loadgen --addr "$raddr" --sessions 4 --clients 2 \
    --rate 2000 --duration 2 --zipf 1.0 --seed 0x5EED \
    --json "$out_cl/loadgen.json" >"$out_cl/loadgen.txt" 2>&1 &
loadgen_pid=$!
bg_pids+=("$loadgen_pid")
# Let the scripted migration fire, then SIGTERM backend 1: its drain
# writes shard snapshots + the marker, and the router must fail it over
# gracefully while the load keeps running.
sleep 0.8
kill -TERM "$b1_pid"
wait "$loadgen_pid" \
    || { echo "cluster loadgen failed (served != oracle?)"; cat "$out_cl/loadgen.txt"; exit 1; }
jq -e '.all_match == true and .applied > 0' "$out_cl/loadgen.json" >/dev/null \
    || { echo "cluster loadgen report failed validation"; cat "$out_cl/loadgen.json"; exit 1; }
echo "Zipf load through the router matches the oracle across migration + failover"

# The router's own books: exactly one scripted migration, exactly one
# failover, nothing lost (graceful failover restores from snapshots).
"$ntp_bin" top --addr "$raddr" --once --json >"$out_cl/top.json"
jq -e '.router.counters."route.migrations" == 1
       and .router.counters."route.failovers" == 1
       and .router.counters."route.sessions_lost" == 0
       and .router.counters."route.errors" == 0
       and .backend1.counters.alive == 0' \
    "$out_cl/top.json" >/dev/null \
    || { echo "router counters failed validation"; cat "$out_cl/top.json"; exit 1; }
"$ntp_bin" top --addr "$raddr" --once >"$out_cl/top.txt"
grep -q 'migrations 1  failovers 1' "$out_cl/top.txt" \
    || { echo "ntp top header missing the router's migration/failover counts"; cat "$out_cl/top.txt"; exit 1; }
grep -qE '^1\s+no' "$out_cl/top.txt" \
    || { echo "ntp top table missing the dead backend row"; cat "$out_cl/top.txt"; exit 1; }
wait "$b1_pid" || { echo "SIGTERMed backend exited nonzero"; cat "$out_cl/b1.err"; exit 1; }
grep -q 'drained:' "$out_cl/b1.txt" \
    || { echo "SIGTERMed backend did not drain"; cat "$out_cl/b1.txt"; exit 1; }
echo "one migration, one graceful failover, zero sessions lost"

# Clean drain of the whole tree through the router.
"$ntp_bin" top --addr "$raddr" --once --shutdown >/dev/null
wait "$route_pid" || { echo "ntp route exited nonzero"; cat "$out_cl/route.err"; exit 1; }
wait "$b0_pid" || { echo "surviving backend exited nonzero"; cat "$out_cl/b0.err"; exit 1; }
grep -q '\[route\] drained:' "$out_cl/route.txt" \
    || { echo "router summary missing"; cat "$out_cl/route.txt"; exit 1; }
grep -q 'drained: 4 sessions' "$out_cl/route.txt" \
    || { echo "router summary missing the 4 sessions"; cat "$out_cl/route.txt"; exit 1; }
echo "cluster drained cleanly through the router"

say "performance gate: paired perfbench runs against the parent commit"
# BENCHMARK.json's end-to-end metrics, normalised by perfbench's frozen
# reference kernel, measured in alternating pairs against the parent on
# this host: offline-sweep for the capture stage and the replay path
# (the predictor core) and serve-burst for the serving path (wire, event
# loop and shard). The gate fails on a crashed run, on a pair in which
# the change failed more operations, or on a latency_p50_us,
# latency_p90_us or peak_rss_mb median, or offline-sweep's setup_s
# median, worse than the parent's by more than that metric's
# BENCHMARK.json bound; scripts/bench_ab.sh computes each verdict and
# prints them as its last line. serve-burst's setup_s is not held: its
# set-up is mostly a tiny-scale capture, the code offline-sweep's setup_s
# holds, and its quartile spread across 20 s runs reached a fifth of its
# median, near the bound.
# The parent is HEAD while a tracked file differs from it (the change is
# uncommitted) and HEAD~1 once the change is committed; its perfbench is
# built once, under target/bench-ab/.
# offline-sweep runs 4 pairs of 5 s (its round times spread by about
# 2 %), serve-burst 6 pairs of 10 s (a 5 s run's burst p50 is the median
# of only 5 one-second windows and read anywhere from 114 to 228 us on
# unchanged code): about 3.5 minutes.
if [ -n "$(git status --porcelain --untracked-files=no)" ]; then parent=HEAD; else parent=HEAD~1; fi
mktmp out_ab
for run in "offline-sweep 4 5 setup_s,latency_p50_us,latency_p90_us,peak_rss_mb" \
    "serve-burst 6 10 latency_p50_us,latency_p90_us,peak_rss_mb"; do
    read -r workload pairs seconds held <<<"$run"
    scripts/bench_ab.sh "$parent" "$workload" "$pairs" 1 "$seconds" >"$out_ab/$workload.txt" \
        || { echo "bench_ab.sh failed on $workload"; exit 1; }
    tail -n 1 "$out_ab/$workload.txt" >"$out_ab/$workload.json"
    jq -r --arg held "$held" '.workload as $w | .no_regression
        | to_entries[] | select(.key | IN($held | split(",")[]))
        | "\($w) \(.key): parent \(.value.base * 100 | round / 100), change \(.value.change * 100 | round / 100) (bound \(.value.bound * 100)%: \(if .value.holds then "holds" else "FAILS" end))"' \
        "$out_ab/$workload.json"
    jq -e --arg held "$held" '(.crashed | length) == 0 and (.change_failed_more | length) == 0
        and ([.no_regression[$held | split(",")[]].holds] | all)' \
        "$out_ab/$workload.json" >/dev/null \
        || { echo "performance gate failed on $workload"; cat "$out_ab/$workload.txt"; exit 1; }
done
echo "no regression against $(git rev-parse --short "$parent") on offline-sweep or serve-burst"

printf '\nAll checks passed.\n'
