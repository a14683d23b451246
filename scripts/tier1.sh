#!/usr/bin/env bash
# Tier-1 verification: build, full test suite, a warning-free clippy
# pass over every target (examples and tests included), a
# formatting check, and the repo-native lints (scripts/analyze.sh runs
# the deeper, slower static-analysis tier on top of these).
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release
cargo test -q
# Explicit gates on the sans-IO protocol core and its real-socket
# drivers: direct proptests over the state machine and the TCP frame
# codec, the four-way (sim/thread/tcp/reactor) fault-counter parity
# test, and the chaos suite with its mid-revolution connection severs
# on both socket backends. All are also part of `cargo test -q` above;
# named here so a failure is obvious. The socket legs bind port 0 and
# handshake, so they never race on ports.
cargo test -q -p data-roundabout --test proptests --test parity
cargo test -q -p integration-tests --test chaos
# Timer gate: every wall-clock timer is on the coordinator's one queue.
# Against a sorted model (thousands of stale entries included) a timer
# never fires before its deadline, fires in (deadline, arm order) with
# ties, and every armed item fires exactly once; an overslept loop
# fires overdue timers by deadline, not by arming order; and the
# coordinator waits until the next deadline, never past the watchdog.
cargo test -q -p data-roundabout --lib every_armed_timer_fires_once_in_deadline_then_arming_order
cargo test -q -p data-roundabout --lib overdue_timers_fire_in_deadline_order_not_arming_order
cargo test -q -p data-roundabout --lib the_wait_ends_at_the_next_deadline_or_the_watchdog
# Elastic-membership gate: the protocol-direct join/drain/crash
# interleaving proptests, the seeded rescale schedule that must land on
# identical membership counters in all four worlds, and the
# crash-during-drain degradation ladder end to end.
cargo test -q -p data-roundabout --test proptests protocol_core_rescale
cargo test -q -p data-roundabout --test parity seeded_rescale_schedule_four_way_parity
cargo test -q -p integration-tests --test chaos crash_during_drain
# Reactor-driver gate: the event-loop backend's chaos legs — a
# connection sever healed mid-revolution and a crash during a planned
# drain — both of which exercise the coordinator's timer queue and the
# readiness loop's teardown paths under faults.
cargo test -q -p integration-tests --test chaos reactor_
# Multi-tenant gate: protocol-direct proptests over random interleavings
# of 2–4 concurrent queries (per-query credit partition, exactly-once
# join/delivery per (query, fragment), bounded fairness deficit), the
# seeded fault plan that must land on identical per-query
# retransmit/checksum/completion counters in all four worlds, and the
# chaos legs that crash a shared ring mid-revolution with two tenants
# aboard and during a drain while a third query waits in admission.
cargo test -q -p data-roundabout --test proptests protocol_core_multiplex
cargo test -q -p data-roundabout --test parity multi_tenant_fault_plan_four_way_parity
cargo test -q -p integration-tests --test chaos multi_tenant
# Visit-cost gate: the batched hash probe against the single-key probe
# that defines it (every key shape, batch-boundary probe lengths, both
# output modes and orientations), and the reactor's inline-visit rule —
# per-host serialisation and order with cheap visits on the reactor
# thread, the fall-back to the pool after a slow visit and the way back,
# a panicking inline visit as a typed teardown, and inline visits that
# leave the same spans, busy time and counter as pooled ones.
# The wire checksum in four lanes must still catch two swapped tuples (in
# one lane or across lanes) and any flipped column bit; a stationary hash
# state (every partition's table in one set of arrays) must allocate the
# same at any fan-out and a warm visit over wire bytes nothing (its own
# counting allocator); and the state must find the reference equi-join at
# radix bits 0-9, passes of 2 or 8 bits, the probe owned or in unaligned
# wire bytes, and 1-3 threads.
# The prefetching probe's bucket vector and cursors, carried through every
# batch and partition of a visit, must give each visit of a random fragment
# sequence the single-key probe's multiset, key by key.
cargo test -q -p mem-joins --test proptests batched_probe_equals_single_key_probes
cargo test -q -p relation --test proptests wire_checksum_catches_swaps_and_flips
cargo test -q -p mem-joins --test alloc_hash
cargo test -q -p mem-joins --test proptests contiguous_state_equals_reference_join
cargo test -q -p mem-joins --test proptests selection_state_is_carried_across_batches_partitions_and_visits
cargo test -q -p data-roundabout --lib cheap_visits_run_inline_serially_and_in_order
cargo test -q -p data-roundabout --lib a_slow_visit_falls_back_to_the_pool_and_comes_back
cargo test -q -p data-roundabout --lib a_panicking_inline_visit_is_a_typed_teardown
cargo test -q -p data-roundabout --lib traced_inline_visits_reconcile_with_the_metrics
# Shared-decision gate: every backend runs one applier, the coordinator,
# so what the four decide alike exists once. The table test of `observe`
# (one row per `protocol::Output` variant → its event and counter; the
# pinned strings live there) and its inert-when-off twin; the
# all-standby rescale plan refused by the one rule table on the three
# engines (typed error) and the simulator (typed panic message); the
# four-backend vocabulary tests under a seeded lossy + corrupting plan
# (event kinds and dice-determined counters) and under delay spikes
# (`duplicate … dropped`); and the pinned `RingMetrics` fingerprints
# that hold modeled time bit-identical.
cargo test -q -p data-roundabout --lib observe_
cargo test -q -p data-roundabout --lib all_standby_rescale_is_rejected
cargo test -q -p integration-tests --test trace_export on_all_four_backends
cargo test -q -p data-roundabout --test sim_golden
# One-applier gate: the simulator is a `Medium` of the coordinator, on
# a virtual clock. Its nine pinned fingerprints and the multi-tenant
# virtual-time pin must not move; the crash-heal instants now replay on
# the coordinator's own code; a job that finishes after its host
# crashed is booked (busy time and compute) yet never reaches the
# protocol, on every clock; and no file but the coordinator may name an
# `Output::` variant, the simulated backend included.
cargo test -q -p data-roundabout --test sim_golden
cargo test -q -p integration-tests --test determinism seeded_multi_tenant_virtual_time_does_not_see_the_kernel
cargo test -q -p data-roundabout --lib a_corpse_holding_final_hop_work_is_still_confirmed_dead
cargo test -q -p data-roundabout --lib a_job_finishing_after_its_host_crashed_is_booked_not_reported
cargo test -q -p xtask --lib l6_single_applier_flags_output_paths_outside_tests
# Frame-path gate: a payload is encoded once per revolution and forwarded
# as a fresh header plus the bytes it arrived in. Forwarded bytes must
# equal a fresh encoding of the decoded payload for every payload form,
# read through the decoder at arbitrary splits; both socket engines must
# encode each fragment exactly once under a lossy, corrupting plan (and
# still reject and repair every corrupt attempt); a hostile
# radix-partition count must end in a typed error before anything is
# sized from it; and a vectored write must put its parts on the wire
# back to back however a socket cuts and interrupts it, and end in
# `WriteZero` when the socket takes nothing; and a blocking reader must
# retry a read interrupted by a signal, not drop its connection.
cargo test -q -p data-roundabout --lib forwarded_bytes_equal_reencoded_bytes
cargo test -q -p data-roundabout --lib each_fragment_is_encoded_once
cargo test -q -p data-roundabout --lib hostile_partition_count_is_refused_before_allocating
cargo test -q -p data-roundabout --lib vectored_writes_put_the_parts_on_the_wire_in_order
cargo test -q -p data-roundabout --lib an_interrupted_read_is_retried_not_a_lost_connection
# Decode-never gate: a received payload is checked once on receipt and
# every visit joins its bytes in place. The view must refuse exactly what
# decoding refuses (byte flips in the columns included, truncations,
# hostile partition counts, unsorted runs, bodies at unaligned offsets)
# and read what it yields; the hash probe and the merge kernel must find
# the same matches over a view of wire bytes as over owned columns; both
# socket engines must run a quiet and a lossy, corrupting ring without
# one decode; and a body with one flipped payload-column bit must end the
# run in a typed frame error. (The probe over a view is the visit-cost
# gate's batched-probe proptest above.)
cargo test -q -p relation --lib views_read_what_decode_yields_at_any_offset
cargo test -q -p mem-joins --lib wire::
cargo test -q -p data-roundabout --lib the_view_refuses_exactly_what_decode_refuses
cargo test -q -p data-roundabout --lib a_received_payload_is_never_decoded
cargo test -q -p data-roundabout --lib a_flipped_column_bit_is_a_frame_error
# Zero-copy placement gate: a placement is views of the caller's columns.
# Every stationary share and rotating fragment must lie inside the input
# columns, read back in host and fragment order as the input tuple for
# tuple, and cut it where the copying `Relation::split_even` does (any
# length, 1–9 hosts, 1–6 fragments, any standby mask); a takeover must
# rebuild the orphaned role from its own share, so that the survivor's
# visit joins against exactly its own and the absorbed share; and a
# mid-revolution crash must still heal on the reactor, through the engine
# suite's body and through a `CycloJoin` whose session rebuilds the role
# from its view.
cargo test -q -p cyclo-join --lib a_placement_aliases_its_input_and_covers_it_exactly
cargo test -q -p cyclo-join --lib a_takeover_rebuilds_the_orphaned_role_from_its_share
cargo test -q -p data-roundabout --lib reactor_heals_a_mid_revolution_crash
cargo test -q -p integration-tests --test chaos reactor_connection_sever_mid_revolution_heals_exactly_once
# Alloc-free hop gate: once the ring is warm a hop allocates nothing. A
# protocol input fed through one reused sink must stay under one
# allocation per hundred inputs on classic, reliable and multi-tenant
# rings of the smallfrag shape (its own counting allocator); an arrival
# must land in the warm pooled cell its predecessor left, and a copy held
# on another thread must keep its cell until it is dropped; a healed
# survivor's multi-role visit must still name its roles. (The multiplexed
# protocol proptests and the simulator's pinned fingerprints, which must
# not move, run in the gates above.)
cargo test -q -p data-roundabout --test alloc_free
cargo test -q -p data-roundabout --lib an_arrival_reuses_its_warm_cell
cargo test -q -p data-roundabout --lib a_copy_held_on_another_thread_keeps_its_cell
cargo test -q -p data-roundabout --lib a_healed_survivors_multi_role_visit_names_its_roles
# Prepared-in-wire gate: a rotating fragment is reorganised straight into
# the bytes the ring carries and sent from where it was written. The
# prepared bytes must equal the owned reorganisation encoded by hand (every
# algorithm, radix bits 0-10 in one pass or several, threads, input in
# columns or in bytes at any offset), sized once; on both socket engines
# each origin's visit must read the buffer its fragment was prepared in,
# quiet or lossy, with one first send per fragment; and a returned origin
# buffer must carry the next arrival of its size with zero allocations.
# (The simulator's pins and the protocol's allocation bounds, which must
# not move, run in the gates above.)
cargo test -q -p mem-joins --test proptests prepared_bytes_equal_prepare_then_encode
cargo test -q -p data-roundabout --lib an_origin_sends_the_bytes_it_was_prepared_in
cargo test -q -p data-roundabout --lib a_returned_origin_buffer_takes_the_next_arrival_without_allocating
# Sort-merge kernel gate: a run is sorted by one stable LSD radix sort
# that writes its last pass where the run lives (its two columns, or its
# wire bytes), and a single-thread merge pushes straight into the
# caller's collector. The radix-sorted run must equal the standard
# library's stable sort tuple for tuple (key domains that leave 0–3 digits
# to sort, lengths around a digit's bucket count, input owned or in wire
# bytes at an unaligned offset, 1–4 threads) and its prepared bytes must
# be exactly that run's encoding; a single-thread sort must allocate its
# scratch and its two columns, a prepared run its scratch and its bytes,
# and a merge into a warm collector nothing (its own counting allocator);
# the key order must not depend on the thread count; and a prepared run
# must equal the owned run encoded by hand.
# A visit (the stationary state's directory kernel) must find the
# multiset the plain merge finds: key domains from all keys equal to any
# u32, half-widths from 0 to u32::MAX, lengths around its block and lane
# widths, the probe run owned or in wire bytes, 1-4 threads, both
# collector modes. A stationary state must allocate the sort's three
# buffers and its directory, a warm band visit nothing; and the plain
# merge must equal the band reference.
cargo test -q -p mem-joins --test proptests radix_sorted_runs_equal_the_stable_sort
cargo test -q -p mem-joins --test alloc_sort
cargo test -q -p mem-joins --lib sorting_is_correct_for_any_thread_count
cargo test -q -p mem-joins --test proptests prepared_bytes_equal_prepare_then_encode
cargo test -q -p mem-joins --test proptests indexed_merge_equals_plain_merge
cargo test -q -p mem-joins --lib band_merge_matches_reference
# One-wall-clock-applier gate: every wall-clock run goes through the
# coordinator, the channel engine's plan-free runs and every engine's
# one-host ring included. Setup, busy and sync span totals must
# reconcile with the metrics host by host on all four backends; an
# in-flight copy must stay 16 bytes, an owned launch must keep every
# envelope field and put every payload in one shared allocation, and a
# quiet 4-host channel run must cost its driving thread under half an
# allocation per fragment; a one-host ring must run on the threads
# backend and on both socket engines without a socket.
cargo test -q -p integration-tests --test trace_export phases_reconcile_with_metrics_on_all_four_backends
cargo test -q -p data-roundabout --lib an_in_flight_copy_is_16_bytes
cargo test -q -p data-roundabout --lib owned_payloads_launch_into_one_slab
cargo test -q -p data-roundabout --lib a_quiet_run_launches_its_payloads_into_one_slab
cargo test -q -p data-roundabout --lib single_host_processes_locally
cargo test -q -p data-roundabout --lib single_host_ring_needs_no_sockets
cargo test -q -p data-roundabout --lib reactor_single_host_shares_the_local_path
cargo clippy --all-targets -- -D warnings
cargo fmt --check
cargo run -q --release -p xtask -- analyze
# Model-checker gate: exhaustive exploration of the 2-host/1-fragment/
# 1-crash bound over the sans-IO protocol core (all six invariant
# families), the 2-host/2-query multiplexed bound (per-query credit
# partition and exactly-once per (query, fragment), with the second
# query held in admission), plus the seeded-sabotage self-check that
# must be *caught* with a minimal counterexample trace. The deep 3-host
# bounds run in scripts/analyze.sh.
cargo run -q --release -p xtask -- verify --smoke
# Benchmark smoke (read-only use of benchmark/): all five workloads at
# one eighth size, every run checked against the reference join, so a
# kernel that returns a wrong count fails here before it reaches the
# benchmark pipeline. Builds into benchmark/target (git-ignored).
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --smoke
