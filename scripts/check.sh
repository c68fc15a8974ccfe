#!/usr/bin/env sh
# Full local gate: build everything, run the whole test suite (unit,
# property, differential, fault-injection, and golden round-trip tests),
# then re-run the fault-injection suite at both pool widths — recovered
# sweeps must be byte-identical to unfaulted ones whether the pool is
# sequential or four workers wide.
set -e
cd "$(dirname "$0")/.."
dune build
dune runtest

echo "== faults stage: injection suite at --jobs 1 =="
FAULTS_JOBS=1 ./_build/default/test/test_faults.exe
echo "== faults stage: injection suite at --jobs 4 =="
FAULTS_JOBS=4 ./_build/default/test/test_faults.exe

# Obs stage (DESIGN.md §11): instrumentation must not change what a
# sweep computes (the untraced and traced CSVs are byte-identical), and
# the trace merged from four workers must be byte-identical to the
# sequential one — logical-mode events carry no clocks, so any diff is
# a merge bug. The traces must also be well-formed: every line a JSON
# object, span begins balanced by span ends.
echo "== obs stage: traced sweep at --jobs 1 and 4 =="
obsdir=_build/obs-check
rm -rf "$obsdir"
mkdir -p "$obsdir"
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 1 -w web --csv "$obsdir/plain" > /dev/null
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 1 -w web --csv "$obsdir/j1" --trace "$obsdir/j1.jsonl" > /dev/null
./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
  --jobs 4 -w web --csv "$obsdir/j4" --trace "$obsdir/j4.jsonl" > /dev/null
cmp "$obsdir/plain/fig2-web.csv" "$obsdir/j1/fig2-web.csv" \
  || { echo "obs stage: tracing changed the figure output"; exit 1; }
cmp "$obsdir/j1/fig2-web.csv" "$obsdir/j4/fig2-web.csv" \
  || { echo "obs stage: figure output differs across --jobs"; exit 1; }
cmp "$obsdir/j1.jsonl" "$obsdir/j4.jsonl" \
  || { echo "obs stage: merged trace differs between --jobs 1 and 4"; exit 1; }
lines=$(wc -l < "$obsdir/j4.jsonl")
bad=$(grep -cv '^{"scope":".*}$' "$obsdir/j4.jsonl" || true)
begins=$(grep -c '"kind":"B"' "$obsdir/j4.jsonl")
ends=$(grep -c '"kind":"E"' "$obsdir/j4.jsonl")
[ "$lines" -gt 0 ] && [ "$bad" -eq 0 ] && [ "$begins" -eq "$ends" ] \
  || { echo "obs stage: malformed trace ($lines lines, $bad bad, $begins B vs $ends E)"; exit 1; }
echo "obs stage OK: $lines events, $begins spans, traces and CSVs identical"

# Deadline stage: a budgeted figure sweep must finish within its budget
# plus one cell's grace, degrade cells to looser-but-still-certified
# bounds, and pass the from-scratch certificate recheck (--certify makes
# any overrun or failed recheck exit nonzero) — at both pool widths.
for j in 1 4; do
  echo "== deadline stage: governed sweep + certificate recheck at --jobs $j =="
  out=_build/deadline-check-j$j.out
  ./_build/default/bin/experiments.exe fig2 --quick --scale 0.02 \
    --deadline 10 --certify --jobs "$j" -w web > "$out"
  grep -E 'deadline|certificates' "$out"
done

# Tree stage: on seeded tree instances the closest-allocation DP is the
# exact optimum, so validate --family tree checks every other producer
# against it (simplex/PDHG/Lagrangian below, rounded LP and heuristics
# above) and exits nonzero on any inversion. The validate output prints
# no wall clocks, so sequential and four-worker runs must agree to the
# byte — any diff is sweep nondeterminism.
echo "== tree stage: DP-vs-LP agreement at --jobs 1 and 4 =="
treedir=_build/tree-check
rm -rf "$treedir"
mkdir -p "$treedir"
./_build/default/bin/experiments.exe validate --family tree --count 3 \
  --jobs 1 > "$treedir/j1.out"
./_build/default/bin/experiments.exe validate --family tree --count 3 \
  --jobs 4 > "$treedir/j4.out"
cmp "$treedir/j1.out" "$treedir/j4.out" \
  || { echo "tree stage: validate output differs across --jobs"; exit 1; }
grep -q 'all checks passed' "$treedir/j1.out" \
  || { echo "tree stage: bound ordering violations"; exit 1; }
echo "tree stage OK: $(grep -c 'tree-dp' "$treedir/j1.out") DP cells, outputs identical across --jobs"

# Scale stage: the bundled + sharded Lagrangian sweep (DESIGN.md §13)
# prints no wall clocks on stdout (timings go to stderr), so runs at
# --jobs 1 and 4 must agree to the byte — any diff is shard
# nondeterminism. --check additionally gates the decomposition on a
# small instance: the dual must sit below the exact simplex optimum
# (bound sandwich) and the bundled bound must equal the
# forced-unbundled one bit for bit (the family is homogeneous).
echo "== scale stage: bundled Lagrangian sweep at --jobs 1 and 4 =="
scaledir=_build/scale-check
rm -rf "$scaledir"
mkdir -p "$scaledir"
./_build/default/bin/experiments.exe figscale --objects 2000 --check \
  --jobs 1 > "$scaledir/j1.out" 2> /dev/null
./_build/default/bin/experiments.exe figscale --objects 2000 --check \
  --jobs 4 > "$scaledir/j4.out" 2> /dev/null
cmp "$scaledir/j1.out" "$scaledir/j4.out" \
  || { echo "scale stage: figscale output differs across --jobs"; exit 1; }
grep -q 'scale checks passed' "$scaledir/j1.out" \
  || { echo "scale stage: bound-sandwich or bundling-exactness gate failed"; exit 1; }
echo "scale stage OK: $(sed -n 's/^bundling: .*(\(.*\)x).*/\1/p' "$scaledir/j1.out")x bundle ratio, outputs identical across --jobs"

# Avail stage: the availability validation family checks the sampler's
# determinism, the all-up/monotonicity laws of the degraded re-pricer,
# the scenario LP's lower-bound validity against every evaluated
# placement, and the k-failure survival flags — and its output prints no
# wall clocks, so the sequential and four-worker runs must agree to the
# byte (scenario sampling, assessment and replay are all seeded FNV
# decisions, never scheduling).
echo "== avail stage: availability validation at --jobs 1 and 4 =="
availdir=_build/avail-check
rm -rf "$availdir"
mkdir -p "$availdir"
./_build/default/bin/experiments.exe validate --family avail --count 6 \
  --jobs 1 > "$availdir/j1.out"
./_build/default/bin/experiments.exe validate --family avail --count 6 \
  --jobs 4 > "$availdir/j4.out"
cmp "$availdir/j1.out" "$availdir/j4.out" \
  || { echo "avail stage: validate output differs across --jobs"; exit 1; }
grep -q 'all checks passed' "$availdir/j1.out" \
  || { echo "avail stage: availability law violations"; exit 1; }
echo "avail stage OK: $(grep -c 'k2:' "$availdir/j1.out") placements checked, outputs identical across --jobs"

# Dist stage (DESIGN.md §15): a fig2 sweep dispatched to two loopback
# TCP workers under injected network chaos — session crashes, dropped
# and garbled dispatch frames, refused connects, delayed sends — must
# produce a CSV byte-identical to the local sequential run, at both
# pool widths. Then the coordinator itself is killed after its second
# checkpoint (ckill_after=2, exit 96) and resumed from the journal;
# the resumed run must also match to the byte. The fault decisions are
# keyed by (seed, kind, task key) only, so this chaos schedule is the
# same one every time.
echo "== dist stage: fault-injected sweep on 2 loopback TCP workers =="
distdir=_build/dist-check
rm -rf "$distdir"
mkdir -p "$distdir/seq" "$distdir/j1" "$distdir/j4" "$distdir/resume" "$distdir/journal"
./_build/default/bin/experiments.exe worker --listen 0 2> "$distdir/w1.err" &
W1=$!
./_build/default/bin/experiments.exe worker --listen 0 2> "$distdir/w2.err" &
W2=$!
trap 'kill $W1 $W2 2>/dev/null || true' EXIT
sleep 1
port1=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$distdir/w1.err")
port2=$(sed -n 's/.*listening on [^:]*:\([0-9]*\).*/\1/p' "$distdir/w2.err")
[ -n "$port1" ] && [ -n "$port2" ] \
  || { echo "dist stage: workers failed to start"; exit 1; }
DIST_FAULTS="seed=11,crash=0.15,drop=0.2,garble=0.2,disconnect=0.2,partition=0.3,delay=0.3,delay_s=0.01"
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 1 -w web --csv "$distdir/seq" > /dev/null
for j in 1 4; do
  ./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
    --jobs "$j" -w web --workers "127.0.0.1:$port1,127.0.0.1:$port2" \
    --task-timeout 20 --inject "$DIST_FAULTS" \
    --csv "$distdir/j$j" > "$distdir/j$j.out"
  cmp "$distdir/seq/fig2-web.csv" "$distdir/j$j/fig2-web.csv" \
    || { echo "dist stage: chaos run differs from sequential at --jobs $j"; exit 1; }
done
# Coordinator crash and journal recovery: the killed run must exit with
# the injected-kill status and leave a resumable journal behind.
kill_status=0
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 1 -w web --workers "127.0.0.1:$port1,127.0.0.1:$port2" \
  --task-timeout 20 --inject "$DIST_FAULTS,ckill_after=2" \
  --journal "$distdir/journal" --csv "$distdir/resume" \
  > /dev/null 2>&1 || kill_status=$?
[ "$kill_status" -eq 96 ] \
  || { echo "dist stage: coordinator kill exited $kill_status, want 96"; exit 1; }
[ -n "$(ls "$distdir/journal")" ] \
  || { echo "dist stage: no journal left by the killed coordinator"; exit 1; }
./_build/default/bin/experiments.exe fig2 --quick --scale 0.01 \
  --jobs 1 -w web --workers "127.0.0.1:$port1,127.0.0.1:$port2" \
  --task-timeout 20 --inject "$DIST_FAULTS" \
  --journal "$distdir/journal" --csv "$distdir/resume" > "$distdir/resume.out"
cmp "$distdir/seq/fig2-web.csv" "$distdir/resume/fig2-web.csv" \
  || { echo "dist stage: resumed run differs from sequential"; exit 1; }
grep -q 'resuming sweep' "$distdir/resume.out" \
  || grep -q 'resumed=[1-9]' "$distdir/resume.out" \
  || { echo "dist stage: resume did not restore cells from the journal"; exit 1; }
kill $W1 $W2 2>/dev/null || true
trap - EXIT
echo "dist stage OK: chaos CSVs identical at --jobs 1 and 4, coordinator kill+resume identical"

# Online stage (DESIGN.md §16): the epoch-driven placement service must
# be a pure function of (trace, epoch size, strategy set) — its stdout
# carries no wall clocks (timings go to stderr), so runs at --jobs 1
# and 4 must agree to the byte. So must their logical traces, as in the
# obs stage: the searches and the class-bound solves run as pool tasks,
# whose trace scopes are the same at every --jobs. Every reported
# regret must be nonnegative (serve itself exits nonzero on a negative
# one), and the
# Strategy-interface route must reproduce the pre-redesign heuristic
# deployments bit for bit on the seed figures.
echo "== online stage: serve at --jobs 1 and 4, strategy-port equivalence =="
onlinedir=_build/online-check
rm -rf "$onlinedir"
mkdir -p "$onlinedir"
for j in 1 4; do
  ./_build/default/bin/experiments.exe serve -w web --scale 0.01 \
    --intervals 12 --epoch-intervals 4 \
    --strategies greedy-global,greedy-replica,lru-caching \
    --jobs "$j" --trace "$onlinedir/j$j.jsonl" > "$onlinedir/j$j.out" 2> /dev/null
done
cmp "$onlinedir/j1.out" "$onlinedir/j4.out" \
  || { echo "online stage: serve output differs across --jobs"; exit 1; }
cmp "$onlinedir/j1.jsonl" "$onlinedir/j4.jsonl" \
  || { echo "online stage: serve trace differs between --jobs 1 and 4"; exit 1; }
grep -q '^served ' "$onlinedir/j1.out" \
  || { echo "online stage: serve did not complete"; exit 1; }
# A class bound is a function of (class, goal, workload) alone: the same
# trace served as one epoch must end with the same bounds and decisions
# as the final epoch of the 4-interval run. The epoch header is left out
# because its working set is windowed by the epoch size.
./_build/default/bin/experiments.exe serve -w web --scale 0.01 \
  --intervals 12 --epoch-intervals 12 \
  --strategies greedy-global,greedy-replica,lru-caching \
  --jobs 4 > "$onlinedir/k12.out" 2> /dev/null
last_epoch_block() {
  awk '/^epoch /{b=""; next} /^  /{b=b $0 "\n"} END{printf "%s", b}' "$1"
}
last_epoch_block "$onlinedir/j1.out" > "$onlinedir/k4.last"
last_epoch_block "$onlinedir/k12.out" > "$onlinedir/k12.last"
test -s "$onlinedir/k12.last" \
  || { echo "online stage: one-epoch serve reported no bounds"; exit 1; }
cmp "$onlinedir/k4.last" "$onlinedir/k12.last" \
  || { echo "online stage: final bounds depend on the epoch size"; exit 1; }
./_build/default/bin/experiments.exe validate --family strategy --scale 0.02 \
  > "$onlinedir/strategy.out"
grep -q 'all strategy-port checks passed' "$onlinedir/strategy.out" \
  || { echo "online stage: ported strategies diverge from the legacy route"; exit 1; }
echo "online stage OK: $(grep -c '^epoch ' "$onlinedir/j1.out") epochs and $(wc -l < "$onlinedir/j1.jsonl") trace events identical across --jobs, final epoch equal to a one-epoch run, $(grep -c ' ok ' "$onlinedir/strategy.out") port checks passed"
