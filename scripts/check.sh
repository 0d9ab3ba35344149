#!/bin/sh
# The full pre-merge gate: build everything, vet everything, run every test
# under the race detector. The runtime is a message-passing system built on
# goroutines, so a -race pass is part of correctness, not a nicety.
#
# The global -timeout enforces the failure model's core promise at the CI
# level: no failure mode is allowed to hang — a regression that re-introduces
# a hang fails the gate instead of wedging it.
set -eux

cd "$(dirname "$0")/.."

# named FLAGS PATTERN PKG...: go test FLAGS -run PATTERN PKG..., once every
# |-separated alternative of PATTERN has been found to name at least one test
# in those packages (go test -list). A list that names a deleted or renamed
# test fails here instead of passing silently with less than it says.
named() {
  flags=$1 pattern=$2
  shift 2
  names=$(go test -list . "$@" | grep -E '^(Test|Fuzz)')
  (
    IFS='|'
    set -f
    for alt in $pattern; do
      printf '%s\n' "$names" | grep -Eq -- "$alt" ||
        { echo "check.sh: -run alternative $alt names no test in $*" >&2; exit 1; }
    done
  )
  # shellcheck disable=SC2086 # flags is a word list
  go test $flags -run "$pattern" "$@"
}

go build ./...
go vet ./...

# Static analysis beyond go vet: staticcheck, pinned by version so every
# machine runs the same checker. The gate must also pass on an offline
# sandbox (this repo's usual CI container has no network), so probe with
# GOPROXY=off — a PATH binary or a warm module cache runs it, anything
# else skips loudly instead of hanging on a fetch.
STATICCHECK=honnef.co/go/tools/cmd/staticcheck@2025.1
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
elif GOPROXY=off go run "$STATICCHECK" -version >/dev/null 2>&1; then
  GOPROXY=off go run "$STATICCHECK" ./...
else
  echo "check.sh: staticcheck unavailable offline; skipping (go install $STATICCHECK)" >&2
fi

go test -race -timeout 300s ./...

# Run the failure suite (abort propagation, deadlines, fault injection, TCP
# hardening) once more under a tighter timeout: these tests exist to prove
# failures terminate promptly, so hold them to a prompter standard.
named '-race -timeout 120s -count=1' \
  'TestRunRankFailure|TestRunPanic|TestAbort|TestSendAfterAbort|TestJoinTCPAbort|TestLowest|TestDeadline|TestFault|TestEmptyFaultPlan|TestHub|TestDialRetry|TestGarbage|TestRunTCP|TestMixedVersion' \
  ./internal/mpi/

# World formation must not race the start broadcast against routed traffic:
# the regression test pauses the hub between start frames (a seam, no
# sleeps) with a peer's first message already in hand. It is cheap (~25 ms),
# so run it 50 times fresh — map iteration picks a different start order
# each time.
named '-race -timeout 120s -count=50' \
  'TestHubStartBroadcastHoldsRoutedFrames' ./internal/mpi/

# The recovery suite (ULFM-style Revoke/Agree/Shrink, checkpoint-restart,
# the randomized kill-rank soak) gets its own fresh -count=1 race pass:
# recovery correctness is precisely about failure/operation races, so a
# cached pass proves nothing. TestWithRecovery* includes the row that counts
# the frames an unused recovery world sends: the plain world's, no others.
# TestAgree* includes the agreement rule's table over every membership state,
# the membership transitions (a raced failure notice included) and the rule
# that a rejoin fails only older-epoch agreements.
named '-race -timeout 180s -count=1' \
  'TestRecover|TestAgree|TestShrink|TestRevoke|TestWithRecovery|TestErrorsCompose|TestKillAttribution' \
  ./internal/mpi/
go test -race -timeout 120s -count=1 ./internal/ckpt/

# The shm runtime (worker pool, work-stealing loops, reductions) and the
# exemplars that ride on it get a fresh -count=1 race pass: the pool and the
# steal deques are the most concurrency-dense code in the repo, and cached
# results must never stand in for a real run of them. The exemplar pass
# includes the survive-and-continue variants (TestDomainRecover*,
# TestMasterWorkerRecover*), which replay seeded kill plans on both
# transports and demand bit-equal results.
go test -race -timeout 120s -count=1 ./internal/shm/ ./internal/exemplars/...

# The whole tree is held to gofmt: any name printed fails.
test -z "$(gofmt -l .)"

# Receive matching: the posted/unexpected-queue mailbox against its one-list
# reference model under seeded random scripts (several goroutines blocked on
# one mailbox, borrowed, lent and streamed payloads landing in destinations,
# reads lost after the claim, revoke racing a hand-over, recall racing a take,
# receives posted ahead of their await, operations that read for themselves),
# the TCP read lease, the ownership rule on every transport in both orders for
# Send and the exchange step, posting order, non-overtaking, per-pair FIFO
# across a modeled link, and the link's pricing rule and overlapped burst
# latency. Twenty fresh runs.
# (The allocation counts among them skip under the race detector; tier-1's
# plain `go test ./...` is where they run.)
named '-race -timeout 300s -count=20' \
  'TestLease|TestLanding|TestExchange|TestPostedAhead|TestIrecvMatchesInPostingOrder|TestAlltoallvWrongLengthBlock|TestMailboxMatchesReferenceModel|TestMailboxHandedFrameReleasedOnceOnFail|TestMailboxClaimedReceiveIsLeftAlone|TestCopyOnSendDecouplesSenderBuffer|TestDeliverWakesOnlyTheMatchingReceive|TestParityNonOvertaking|TestLatencyPreservesPerPairFIFO|TestNetworkPricingRule|TestNetworkBurstOverlapsLatency' \
  ./internal/mpi/

# The master-worker kill tests used to pass by scheduling luck: a kill is
# armed on the victim's k-th send, and the dynamic queue promised the victim
# no more than one task (worker-mid-queue injected no failure in ≈ 10 % of
# package runs; two-workers-die wedged in ≈ 7 % when the 4th send was the
# forwarded closing broadcast). The victim now serves alone until it dies,
# which still guards that its kill fires; 30 fresh runs per gate keep it
# that way. The closing-broadcast wedge itself is fixed: ranks that returned
# are departed, and the survivor's Shrink leaves them out — the
# bcast-forwarder-dies row kills a forwarder of that broadcast every run.
named '-race -timeout 300s -count=30' \
  'TestMasterWorkerRecoverKills|TestMasterWorkerRecoverTwoWorkersDie' \
  ./internal/exemplars/drugdesign/

# The vector data plane: the parity property (every *Slice collective
# element-equal to its scalar counterpart across world sizes, threshold
# straddles, and every transport) plus the vector failure suite (kill-rank
# mid-AllreduceSlice, deadline mid-pipelined bcastSlice),
# fresh under the race detector — the halving/doubling exchanges and the
# pipelined chunk forwarding are new concurrency surface.
named '-race -timeout 180s -count=1' \
  'TestVectorCollectiveParity|TestVectorParityInts|TestVectorOpParity|TestVectorThresholdFallback|TestKillRankMidAllreduceSlice|TestDeadlineMidPipelinedBcastSlice|TestWire|TestRaw' \
  ./internal/mpi/

# The shared-memory transport: protocol selection and the eager/rendezvous
# crossover, mixed-size FIFO ordering, segment lifecycle and reclamation,
# hub formation failures, plus its failure suite (kill mid-rendezvous,
# deadline over shm, recovery reclaiming orphaned staging blocks) — all
# fresh under the race detector: the rings, the large-region allocator, and
# the poll loop are lock-free cross-process state, exactly where a cached
# pass proves nothing. The mpirun end-to-end pass covers -transport shm
# world formation and teardown through the real launcher.
named '-race -timeout 180s -count=1' \
  'TestShm|TestDeadlineOverShm' ./internal/mpi/
named '-race -timeout 180s -count=1' 'TestShm' ./cmd/mpirun/

# The self-healing layer: resilient sessions (a severed socket redialed
# inside the suspicion window, the hub replaying from the last acked
# sequence number), CRC frame integrity (corruption healed by retransmit
# or surfaced as a CorruptFrameError, never a silently wrong result), and
# respawn back to full width. The disconnect/corrupt faults run -count=3
# as a small soak: the reconnect-vs-traffic interleaving is timing-
# dependent, and a single lucky pass proves nothing about the race.
# Recovery has no timer: Restored waits until each failed rank rejoins or
# the coordinator marks it gone for good, and every member gives up in the
# same agreement. The session/respawn line is the named interleaving-
# sensitive repeat, ten fresh runs: a rejoin racing the agreement it
# interrupts, a rank whose relaunches run out while the survivors already
# wait (TestRestored's abandoned row, which wedged when a member could give
# up alone), and Recover's width over relaunched, gone and departed ranks.
# The exemplars' full-width respawn runs repeat five times on top of the
# whole-exemplars pass.
named '-race -timeout 240s -count=3' \
  'TestDisconnectFault|TestCorruptFault' ./internal/mpi/
named '-race -timeout 300s -count=10' \
  'TestSession|TestWireCRC|TestRecvSession|TestRespawn|TestRestored|TestRecoverWidth|TestDisconnectWithoutSuspicion' \
  ./internal/mpi/
named '-race -timeout 300s -count=5' \
  'TestMasterWorkerRespawnFullWidth|TestDomainRespawnFullWidth' \
  ./internal/exemplars/drugdesign/ ./internal/exemplars/forestfire/
named '-race -timeout 240s -count=1' 'TestRespawn' ./cmd/mpirun/
# The wire decoder, the session's accept path above it, the shm record decoder
# and the ckpt manifest loader under arbitrary bytes, 10 s each beyond the
# seeds `go test` runs.
go test -run '^$' -fuzz '^FuzzWireReadFrame$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1 ./internal/mpi
go test -run '^$' -fuzz '^FuzzSessionReceive$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1 ./internal/mpi
go test -run '^$' -fuzz '^FuzzShmRecord$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1 ./internal/mpi
go test -run '^$' -fuzz '^FuzzManifest$' -fuzztime 10s -fuzzminimizetime 1s -parallel 1 ./internal/ckpt

# The topology-aware layer: hierarchical collective parity (every two-level
# collective element-equal to its flat counterpart across world sizes,
# topologies, and transports, including kill-rank and deadline mid-collective)
# plus the nonblocking progress engine (post-order, overlap with blocking
# traffic, Test polling, abort/deadline/kill through Wait), fresh under the
# race detector — the engine's drain goroutine, and on modeled platforms the
# goroutine that delivers each node-pair link's queue, run beside the ranks.
named '-race -timeout 180s -count=1' \
  'TestHier|TestNonblocking|TestOverlap' \
  ./internal/mpi/ ./internal/exemplars/forestfire/

# The one-sided layer and the irregular exchange: window epochs (Put/Get/
# Accumulate under Fence, passive-target Lock/Unlock), all three window data
# paths (local direct, shm segment direct, active-message frames), coalesced
# alltoallv parity including the two-level hierarchy path, and their failure
# suites (kill-rank mid-epoch and mid-exchange, deadline on a stalled fence,
# orphaned shm window reclamation) — fresh under the race detector: the
# per-window service goroutine and the cross-process accumulate spinlock are
# new concurrency surface.
named '-race -timeout 180s -count=1' \
  'TestWin|TestShmWinReclamation|TestKillRankMidWinEpoch|TestAlltoallv|TestKillRankMidAlltoallv' \
  ./internal/mpi/

# The scheduler service: gang placement, per-tenant fairness, quotas and
# backpressure, the retry/quarantine supervisor, heartbeat-driven node death,
# elastic shrink, drain/close, and the HTTP API — fresh under the race
# detector. The suite includes the chaos load test (a node killed mid-load,
# in process and over HTTP under a 429 storm) whose acceptance invariant is
# every admitted job terminal and zero lost.
go test -race -timeout 180s -count=1 ./internal/sched/

# Benchmark smoke pass: one iteration of every benchmark, so a refactor that
# breaks a benchmark body fails the gate instead of being discovered when
# someone next profiles with it.
go test -run '^$' -bench . -benchtime 1x -timeout 300s ./internal/shm/ ./internal/exemplars/...
