// Deterministic full-state checkpoints of a live RtdsSystem
// (DESIGN.md §14).
//
// A snapshot captures everything the remaining run depends on: the
// simulator clock and every pending event (typed data, sim/event.hpp),
// the repair-mutated routing tables, the fault state and its
// perturbation RNG, every node's protocol state machine (locks, leases,
// dedup windows, retransmit slots, admission queues, scheduling plans),
// the transport queues and the run's accumulated metrics. Restoring into
// a freshly constructed RtdsSystem of the *same* (topology, config) —
// enforced by the header's config hash — then stepping to completion
// produces byte-identical results to the uninterrupted run (pinned by
// tests/snapshot_test.cpp).
//
// Any event boundary of a run can be saved, with nothing switched on in
// advance; save() throws only if a closure (Simulator::schedule_at, which
// only tests and benchmarks use) is pending. The restore target must be
// freshly constructed, never stepped.
//
// The caller drives the run through the checkpointable phases
// (RtdsSystem::start / step_events / run_events_until / finish):
//
//   // save side                         // resume side
//   sys.start(arrivals);                 Snapshot::load_file(path, sys2);
//   sys.step_events(100'000);            while (sys2.step_events(N)) {}
//   Snapshot::save_file(sys, path);      sys2.finish();
//
// Open-system runs additionally pass the ArrivalSource (its generator
// state rides in the snapshot) and re-install the pull function with
// RtdsSystem::set_stream_source after load.
#pragma once

#include <string>

namespace rtds {
class RtdsSystem;
}
namespace rtds::obs {
class MetricsBuffer;
}
namespace rtds::load {
class ArrivalSource;
class SteadyStateCollector;
}  // namespace rtds::load

namespace rtds::snap {

/// Sidecar state checkpointed alongside the system. All optional: pass the
/// same set on save and load — a snapshot that carries (or lacks) a
/// sidecar the resumer lacks (or expects) fails loudly, because the
/// resumed run's outputs could not match the uninterrupted run's.
struct SnapshotExtras {
  /// Per-run obs metrics buffer (the JSONL determinism surface).
  obs::MetricsBuffer* metrics = nullptr;
  /// Open-system steady-state windows.
  load::SteadyStateCollector* collector = nullptr;
  /// Open-system arrival generator (save: serialized; load: restored).
  load::ArrivalSource* source = nullptr;
};

struct Snapshot {
  /// Serializes the full live state of `sys`. Throws ContractViolation if
  /// a pending event is a closure rather than a typed event.
  static std::string save(const RtdsSystem& sys,
                          const SnapshotExtras& extras = {});
  /// save() + atomic publish (write to `path`.tmp, rename over `path`).
  static void save_file(const RtdsSystem& sys, const std::string& path,
                        const SnapshotExtras& extras = {});

  /// Restores a snapshot into `sys`, freshly constructed from the same
  /// (topology, config). Rejects wrong magic, version skew, config-hash
  /// mismatch, checksum failures, truncation and events naming sites or
  /// links off the topology with ContractViolations naming section and
  /// offset.
  static void load(std::string bytes, RtdsSystem& sys,
                   const SnapshotExtras& extras = {});
  static void load_file(const std::string& path, RtdsSystem& sys,
                        const SnapshotExtras& extras = {});
};

}  // namespace rtds::snap
