// Whole-system snapshot save/restore (DESIGN.md §14), and the Access::io
// of every state type it captures: RNG streams, statistics accumulators,
// routing tables, spheres, fault views, dedup windows, scheduling plans,
// quantile sketches, metrics buffers, the shared immutable payloads (Jobs,
// TrialMappings), node protocol state and the pending events.
//
// One io walks the live object graph and writes one section per
// subsystem; loading runs the same io against a freshly constructed
// RtdsSystem of the same (topology, config) — enforced by the header's
// config hash — and overwrites exactly the state a run mutates. Pending
// events travel as EventRecords (sim/event_record.hpp) and are re-posted
// through the original private entry points in saved execution order, so
// the re-posted queue pops identically to the saved one: re-posting in
// ascending (time, seq) order hands out ascending fresh sequence numbers,
// preserving every tie-break, and everything scheduled after resume draws
// sequences above them all.
#include "snap/snapshot.hpp"

#include <cstddef>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "core/metrics.hpp"
#include "core/rtds_system.hpp"
#include "core/trial_mapping.hpp"
#include "fault/dedup.hpp"
#include "fault/fault.hpp"
#include "fault/invariants.hpp"
#include "load/source.hpp"
#include "load/window.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "routing/pcs.hpp"
#include "routing/routing_table.hpp"
#include "routing/transport.hpp"
#include "sched/local_scheduler.hpp"
#include "sched/plan.hpp"
#include "snap/access.hpp"
#include "snap/io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rtds::snap {

namespace {

/// One member of every element of `v` as a bulk array: struct-of-arrays
/// on the wire is padding-free and bulk-copyable on decode.
template <class Ar, class V, class M>
void column(Ar& ar, V& v, M member) {
  using T = std::remove_cvref_t<decltype(v[0].*member)>;
  std::vector<T> col(v.size());
  if constexpr (!kLoading<Ar>) {
    for (std::size_t i = 0; i < v.size(); ++i) col[i] = v[i].*member;
  }
  ar.array(col.data(), col.size());
  if constexpr (kLoading<Ar>) {
    for (std::size_t i = 0; i < v.size(); ++i) v[i].*member = col[i];
  }
}

/// Stable on-disk payload tags: the position in this list — deliberately
/// NOT the MessageBody variant index, which shifts whenever MessageBody
/// grows an alternative. Only the RTDS protocol messages (plus monostate
/// and the tests' debug string) are checkpointable: the APSP exchange runs
/// on throwaway simulators and the baseline policies never annotate, so
/// meeting one of their payloads in a checkpoint is a contract violation,
/// not a format gap.
using Tagged = std::tuple<std::monostate, EnrollRequest, EnrollReply,
                          UnlockMsg, ValidateRequest, ValidateReply,
                          DispatchMsg, DispatchAck, std::string>;
constexpr std::uint8_t kNoTag = std::tuple_size_v<Tagged>;

template <class Ar, class M>
void message_io(Ar& ar, Context<Ar>& ctx, M& m) {
  using T = std::remove_const_t<M>;
  if constexpr (std::is_same_v<T, EnrollRequest>) {
    fields(ar, m.job, m.deadline, m.seq);
  } else if constexpr (std::is_same_v<T, EnrollReply>) {
    fields(ar, m.job, m.accepted, m.surplus, m.seq);
  } else if constexpr (std::is_same_v<T, UnlockMsg> ||
                       std::is_same_v<T, DispatchAck>) {
    fields(ar, m.job, m.seq);
  } else if constexpr (std::is_same_v<T, ValidateRequest>) {
    fields(ar, m.job, in(ctx, m.job_data), in(ctx, m.mapping), m.seq);
  } else if constexpr (std::is_same_v<T, ValidateReply>) {
    fields(ar, m.job, m.endorsable, m.seq);
  } else if constexpr (std::is_same_v<T, DispatchMsg>) {
    fields(ar, m.job, m.logical, in(ctx, m.job_data), in(ctx, m.mapping),
           m.seq);
  } else if constexpr (std::is_same_v<T, std::string>) {
    field(ar, m);
  } else {
    static_assert(std::is_same_v<T, std::monostate>);
  }
}

/// Alternative `I` of Tagged, when `tag` selects it.
template <std::size_t I, class Ar>
void alternative_io(Ar& ar, Context<Ar>& ctx, Ref<Ar, MessageBody> body,
                    std::uint8_t tag) {
  using T = std::tuple_element_t<I, Tagged>;
  if (tag != I) return;
  if constexpr (kLoading<Ar>) body.template emplace<T>();
  message_io(ar, ctx, std::get<T>(body));
}

/// An in-flight protocol payload: u8 tag, then the alternative's fields.
template <class Ar>
void payload_io(Ar& ar, Context<Ar>& ctx, Ref<Ar, MessageBody> body) {
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    std::uint8_t tag = kNoTag;
    if constexpr (!kLoading<Ar>) {
      ((std::holds_alternative<std::tuple_element_t<I, Tagged>>(body)
            ? void(tag = I)
            : void()),
       ...);
      RTDS_REQUIRE_MSG(
          tag != kNoTag,
          "checkpoint met an unsupported in-flight payload (variant index "
              << body.index()
              << "): only RTDS protocol messages are serializable — the "
                 "APSP exchange and the baseline policies are not "
                 "checkpointable");
    }
    field(ar, tag);
    if constexpr (kLoading<Ar>) {
      if (tag >= kNoTag)
        ar.fail("unknown message payload tag " + std::to_string(tag));
    }
    (alternative_io<I>(ar, ctx, body, tag), ...);
  }(std::make_index_sequence<kNoTag>{});
}

/// A pending event's replay record; its type-erased pointers travel as a
/// presence flag plus the typed value.
template <class Ar>
void record_io(Ar& ar, Context<Ar>& ctx, Ref<Ar, EventRecord> rec) {
  fields(ar, as_u8<EventRecord::Kind::kContendedHop>(rec.kind, "event kind"),
         rec.small, rec.site, rec.peer, rec.dest, rec.job, rec.task, rec.a,
         rec.x, rec.y);
  bool has_job = rec.job_ref != nullptr;
  field(ar, has_job);
  if (has_job) {
    auto job = std::static_pointer_cast<const Job>(rec.job_ref);
    field(ar, in(ctx, job));
    if constexpr (kLoading<Ar>) rec.job_ref = std::move(job);
  }
  bool has_payload = rec.payload != nullptr;
  field(ar, has_payload);
  if (!has_payload) return;
  if constexpr (kLoading<Ar>) {
    auto body = std::make_shared<MessageBody>();
    payload_io(ar, ctx, *body);
    rec.payload = std::move(body);
  } else {
    payload_io(ar, ctx,
               *std::static_pointer_cast<const MessageBody>(rec.payload));
  }
}

}  // namespace

// --- util/rng.hpp, util/stats.hpp, util/flat_map.hpp ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, Rng> rng) {
  fields(ar, rng.s_, rng.have_spare_normal_, rng.spare_normal_);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, RunningStat> s) {
  fields(ar, s.n_, s.mean_, s.m2_, s.min_, s.max_, s.sum_);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, FlatSet<std::uint64_t>> s) {
  // Only the keys travel; the map's values are the set's presence marks.
  entries(ar, s.map_, 8, [](auto& present) {
    if constexpr (kLoading<Ar>) present = true;
  });
}

// --- routing/routing_table.hpp, routing/pcs.hpp ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, RoutingTable> t) {
  fields(ar, t.owner_, t.site_count_, t.live_);
  const std::size_t n = count(ar, t.dests_.size(), 4 + 8 + 4 + 4);
  if constexpr (kLoading<Ar>) {
    t.dests_.resize(n);
    t.lines_.resize(n);
  }
  // RouteLine travels struct-of-arrays (tables dominate warm-start
  // entries).
  ar.array(t.dests_.data(), n);
  column(ar, t.lines_, &RouteLine::dist);
  column(ar, t.lines_, &RouteLine::next_hop);
  column(ar, t.lines_, &RouteLine::hops);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, Pcs> p) {
  fields(ar, p.root_, p.radius_);
  const std::size_t m = count(ar, p.members_.size(), 4 + 8 + 8);
  if constexpr (kLoading<Ar>) {
    // The m*m pair matrices must fit in what is left after the members.
    if (m != 0 && m > (ar.section_remaining() - 20 * m) / (16 * m))
      ar.fail("sphere pair matrices extend past the section");
    p.members_.resize(m);
    p.pair_delay_.resize(m * m);
    p.pair_hops_.resize(m * m);
  }
  column(ar, p.members_, &PcsMember::site);
  column(ar, p.members_, &PcsMember::delay);
  column(ar, p.members_, &PcsMember::hops);
  // The m*m pair matrices are the bulk of every sphere.
  ar.array(p.pair_delay_.data(), p.pair_delay_.size());
  ar.array(p.pair_hops_.data(), p.pair_hops_.size());
  if constexpr (kLoading<Ar>) {
    // member_index_ is derived (site -> dense index); rebuilt, not stored.
    p.member_index_ = FlatMap<SiteId, std::uint32_t>{};
    p.member_index_.reserve(m);
    for (std::size_t i = 0; i < m; ++i)
      p.member_index_[p.members_[i].site] = static_cast<std::uint32_t>(i);
  }
}

// --- fault/ ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, fault::FaultState> f) {
  // topo_ (a reference) is not stored; the perturbation parameters ARE, as
  // a guard: they must round-trip equal to what the fresh construction
  // derived from the plan.
  agreed(ar, f.site_up_.size(),
         "fault state spans a different site count than the topology");
  for (auto& up : f.site_up_) field(ar, as_u8(up));
  agreed(ar, f.link_up_.size(),
         "fault state spans a different link count than the topology");
  for (auto& up : f.link_up_) field(ar, as_u8(up));
  fields(ar, f.sites_down_, f.links_down_, f.drop_prob_, f.extra_delay_max_,
         f.dup_prob_, f.reorder_prob_, f.reorder_delay_max_,
         f.partition_boundary_, f.partition_downed_,
         f.partition_changed_sites_, f.perturb_rng_);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, fault::InvariantChecker> c) {
  fields(ar, c.last_event_time_, c.submitted_, c.violations_, c.decided_);
  entries(ar, c.last_seq_, 16);
  fields(ar, c.queue_pushed_, c.queue_removed_, c.sheds_);
  if constexpr (kLoading<Ar>) {
    // The repair audit's shadow is derived, not stored: drop it so the
    // next on_repair audits the restored tables in full.
    c.shadow_valid_ = false;
    c.shadow_topo_ = nullptr;
    c.shadow_tables_.clear();
    c.shadow_live_.clear();
    c.violators_.clear();
  }
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, fault::DedupWindow> d) {
  fields(ar, d.max_seq_, d.mask_);
}

// --- sched/ ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, SchedulingPlan> p) {
  sequence(ar, p.items_, 8 + 4 + 8 + 8, [&](auto& res) {
    fields(ar, res.job, res.task, res.start, res.end);
  });
}

// --- load/window.hpp ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, load::QuantileSketch> q) {
  // gamma_/inv_log_gamma_ are ctor-derived from the relative error; stored
  // anyway so a config-skewed restore trips the round-trip guard instead of
  // silently re-binning.
  fields(ar, q.gamma_, q.inv_log_gamma_, q.zero_count_, q.total_);
  entries(ar, q.bins_, 16);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, load::SteadyStateCollector> c) {
  // cfg_ is construction input (the resumed run re-creates the collector
  // with the same WindowConfig); only the accumulated windows travel.
  const std::size_t n = count(ar, c.windows_.size(), 5 * 8 + 48 + 5 * 8);
  if constexpr (kLoading<Ar>) {
    c.windows_.assign(n, load::WindowCell(c.cfg_.sketch_relative_error));
  }
  for (auto& cell : c.windows_) {
    fields(ar, cell.arrived, cell.accepted, cell.rejected, cell.shed,
           cell.completed, cell.sojourn, cell.sketch);
  }
}

// --- obs/obs.hpp ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, obs::MetricsBuffer> m) {
  // By NAME: MetricIds are process interning order, which depends on which
  // call sites ran first — not stable across builds or runs. The recorded
  // cells travel in id order.
  obs::Registry& reg = obs::Registry::instance();
  std::vector<std::uint32_t> ids;  // the recorded cells
  if constexpr (kLoading<Ar>) {
    m.clear();
  } else {
    for (std::uint32_t i = 0; i < m.cells_.size(); ++i)
      if (m.cells_[i].count > 0) ids.push_back(i);
  }
  sequence(ar, ids, 8 + 1 + 4 * 8 + 1, [&](std::uint32_t& id) {
    std::string name;
    std::uint8_t kind = 0;
    if constexpr (!kLoading<Ar>) {
      name = reg.name(obs::MetricId{id});
      kind = static_cast<std::uint8_t>(reg.kind(obs::MetricId{id}));
    }
    fields(ar, name, kind);
    if constexpr (kLoading<Ar>) {
      if (kind > static_cast<std::uint8_t>(obs::MetricKind::kHist))
        ar.fail("unknown metric kind for \"" + name + "\"");
      id = reg.intern(name, static_cast<obs::MetricKind>(kind)).index;
      m.cell(obs::MetricId{id});
    }
    auto& cell = m.cells_[id];
    fields(ar, cell.count, cell.sum, cell.min, cell.max);
    bool has_bins = id < m.bins_.size() && m.bins_[id] != nullptr;
    field(ar, has_bins);
    if (!has_bins) return;
    if constexpr (kLoading<Ar>) {
      if (id >= m.bins_.size()) m.bins_.resize(m.cells_.size());
      m.bins_[id] = std::make_unique<std::uint64_t[]>(65);
    }
    // 65 bins: 0 for the value 0, then bit_width 1..64
    ar.array(m.bins_[id].get(), 65);
  });
}

// --- sim/network.hpp MessageStats, core/metrics.hpp ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, MessageStats> s) {
  std::vector<std::pair<std::uint32_t, MessageStats::Entry>> categories;
  if constexpr (!kLoading<Ar>) {
    for (const auto& [category, entry] : s.by_category)
      categories.emplace_back(static_cast<std::uint32_t>(category), entry);
  }
  sequence(ar, categories, 4 + 8 + 8, [&](auto& c) {
    fields(ar, c.first, c.second.sends, c.second.link_messages);
  });
  if constexpr (kLoading<Ar>) {
    s.clear();
    for (const auto& [category, entry] : categories) {
      if (category >= MessageStats::CategoryCounters::kCapacity)
        ar.fail("message category out of range");
      s.by_category[static_cast<int>(category)] = entry;
    }
  }
  fields(ar, s.total_sends, s.total_link_messages, s.messages_dropped,
         s.messages_duplicated);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, RunMetrics> m) {
  fields(ar, m.arrived, m.accepted_local, m.accepted_remote, m.rejected,
         m.deadline_misses, m.dispatch_failures, m.failed_jobs, m.jobs_lost,
         m.jobs_rescheduled, m.repair_messages, m.messages_duplicated,
         m.retransmits, m.invariant_violations);
  entries(ar, m.reject_by_reason, 16);
  entries(ar, m.adjustment_cases, 16);
  fields(ar, m.decision_latency, m.acs_size, m.msgs_per_job, m.job_lateness,
         m.transport, m.pcs_build_messages, m.pcs_size_max,
         m.pcs_hop_diameter_max);
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, JobDecision> d) {
  fields(ar, d.job, d.initiator,
         as_u8<JobOutcome::kRejected>(d.outcome, "job outcome"),
         as_u8<RejectReason::kShed>(d.reject_reason, "reject reason"),
         d.arrival, d.decision_time, d.deadline, d.task_count, d.acs_size,
         d.link_messages, as_i64(d.adjustment_case), d.fault_recovered);
}

// --- shared immutable payloads (bodies; snap::interned shares them) ---

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, Job> job) {
  fields(ar, job.id, job.release, job.deadline);
  bool finalized = job.dag.finalized();
  struct Task {
    Time cost = 0.0;
    std::string label;
  };
  std::vector<Task> tasks;
  std::vector<Arc> arcs;
  if constexpr (!kLoading<Ar>) {
    for (TaskId t = 0; t < job.dag.task_count(); ++t)
      tasks.push_back({job.dag.cost(t), std::string(job.dag.label(t))});
    arcs.assign(job.dag.arcs().begin(), job.dag.arcs().end());
  }
  field(ar, finalized);
  sequence(ar, tasks, 8 + 8, [&](auto& t) { fields(ar, t.cost, t.label); });
  sequence(ar, arcs, 4 + 4 + 8, [&](auto& a) {
    fields(ar, a.from, a.to, a.data_volume);
  });
  if constexpr (kLoading<Ar>) {
    // Rebuilt through the validating Dag API. CSR adjacency, topological
    // order and bottom levels are re-derived; finalize() is deterministic,
    // so the rebuilt caches match the originals.
    for (const Task& t : tasks) job.dag.add_task(t.cost, t.label);
    for (const Arc& a : arcs) job.dag.add_arc(a.from, a.to, a.data_volume);
    if (finalized) job.dag.finalize();
  }
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, TrialMapping> m) {
  fields(ar, m.assignment, m.release, m.deadline, m.used_processors,
         m.surpluses, m.makespan, m.makespan_full,
         as_u8<AdjustmentCase::kLaxity>(m.adjustment, "adjustment case"),
         m.s_start, m.s_finish, m.star_start, m.star_finish);
  sequence(ar, m.by_processor, 8, [&](auto& tasks) {
    sequence(ar, tasks, 4 + 3 * 8, [&](auto& t) {
      fields(ar, t.task, t.release, t.deadline, t.cost);
    });
  });
}

// Used from journal.cpp, warm_start.cpp and load/source.cpp.
RTDS_SNAP_INSTANTIATE(Rng);
RTDS_SNAP_INSTANTIATE(RoutingTable);
RTDS_SNAP_INSTANTIATE(Pcs);
RTDS_SNAP_INSTANTIATE(obs::MetricsBuffer);
RTDS_SNAP_INSTANTIATE(Job);

// ------------------------------------------------------------- node ----

template <class Ar>
void Access::io(Ar& ar, Context<Ar>& ctx, Ref<Ar, RtdsNode> n) {
  using Phase = RtdsNode::Initiation::Phase;
  fields(ar, n.alive_, n.epoch_, n.lock_seq_, n.lease_, n.start_pending_);
  maybe(ar, n.lock_, [&](auto& lock) { fields(ar, lock.initiator, lock.job); });
  maybe(ar, n.endorsement_, [&](auto& e) {
    fields(ar, e.job, in(ctx, e.job_data), in(ctx, e.mapping), e.endorsed);
  });
  sequence(ar, n.queue_, 1, [&](auto& job) {
    field(ar, in(ctx, job));
    if constexpr (kLoading<Ar>) {
      if (job == nullptr) ar.fail("queued job without a body");
    }
  });
  entries(ar, n.active_, 8 + 1 + 1, [&](auto& init) {
    fields(ar, in(ctx, init.job),
           as_u8<Phase::kDone>(init.phase, "initiation phase"),
           init.expected_replies, init.received_replies, init.repliers,
           init.acs, init.surplus_of, in(ctx, init.mapping),
           init.acs_diameter, init.endorsements, init.validate_expected,
           init.timed_out);
  });
  sequence(ar, n.buffered_enrolls_, 4 + 8 + 8 + 8, [&](auto& enroll) {
    field(ar, enroll.first);
    message_io(ar, ctx, enroll.second);
  });
  entries(ar, n.pending_completions_, 8 + 4);
  entries(ar, n.send_seq_, 4 + 8);
  entries(ar, n.recv_window_, 4 + 16);
  entries(ar, n.retries_, 8 + 4 + 1 + 32, [&](auto& retry) {
    payload_io(ar, ctx, retry.payload);
    fields(ar, as_i64(retry.category), retry.size_units,
           as_i64(retry.attempts), retry.gen);
  });
  // The scheduler's cfg_ is construction input; only its plan is live.
  fields(ar, n.retry_gen_, n.retry_rng_, n.recent_dispatch_,
         n.recent_dispatch_count_, n.sched_.plan_);
}

// ----------------------------------------------------------- system ----

template <class Ar>
void Access::io(Ar& ar, Context<Ar>& ctx, Ref<Ar, RtdsSystem> sys) {
  RTDS_REQUIRE_MSG(sys.cfg_.record_events && sys.sim_.recording(),
                   "snapshots require SystemConfig::record_events = true "
                   "from construction on both the saved and the restored "
                   "system (pending events carry replay records)");
  if constexpr (kLoading<Ar>) {
    RTDS_REQUIRE_MSG(!sys.ran_,
                     "snapshot restore target must be freshly constructed "
                     "(this system already ran)");
  }

  section(ar, "clock", [&] {
    Time now = sys.sim_.now();
    std::uint64_t next_seq = sys.sim_.next_seq();
    std::uint64_t executed = sys.sim_.executed_events();
    fields(ar, now, next_seq, executed);
    if constexpr (kLoading<Ar>) {
      // Drop the constructor-scheduled events (the fault plan), which the
      // snapshot's own event section supersedes, then move the clock so
      // the re-posted events schedule legally.
      sys.sim_.clear_pending();
      sys.sim_.restore_clock(now, next_seq, executed);
    }
  });

  // Repair-mutated routing tables (faults re-converge them in place).
  // repairer_ is not stored: it is pure per-repair scratch, rebuilt on the
  // next topology change exactly as a cold run would.
  section(ar, "tables", [&] {
    agreed(ar, sys.tables_.size(),
           "snapshot spans a different site count than this topology");
    for (auto& t : sys.tables_) field(ar, t);
  });

  section(ar, "fault", [&] {
    if (agreed(ar, sys.fault_state_ != nullptr,
               "snapshot fault-plan presence does not match this config"))
      field(ar, *sys.fault_state_);
  });

  section(ar, "checker", [&] {
    const bool here = sys.checker_ != nullptr;
    if (agreed(ar, here,
               here ? "snapshot was taken without the invariant checker — "
                      "disable check_invariants to resume"
                    : "snapshot was taken with the invariant checker on — "
                      "enable check_invariants (--check-invariants) to "
                      "resume"))
      field(ar, *sys.checker_);
  });

  section(ar, "nodes", [&] {
    agreed(ar, sys.nodes_.size(),
           "snapshot node count does not match this topology");
    for (auto& n : sys.nodes_) io(ar, ctx, *n);
  });

  section(ar, "transport", [&] {
    const TransportModel model = sys.cfg_.transport_model;
    agreed(ar, static_cast<std::uint8_t>(model),
           "snapshot transport model does not match this config");
    if (model == TransportModel::kIdeal) {
      field(ar, static_cast<IdealTransport&>(*sys.transport_).stats_);
    } else {
      auto& t = static_cast<ContendedTransport&>(*sys.transport_);
      fields(ar, t.stats_, t.max_queueing_delay_);
      // The flat per-link table travels as its (from, to) -> busy-until
      // map of crossed directions, ascending.
      auto busy = t.busy_links();
      entries(ar, busy, 4 + 4 + 8);
      if constexpr (kLoading<Ar>) {
        for (const auto& [dir, until] : busy) {
          const Neighbor* link = dir.first < sys.topo_.site_count()
                                     ? sys.topo_.neighbor(dir.first, dir.second)
                                     : nullptr;
          if (link == nullptr || !(until >= 0.0))
            ar.fail("busy entry off the topology's links or before time 0");
          t.busy_until(dir.first, *link) = until;
        }
      }
    }
  });

  section(ar, "system", [&] {
    fields(ar, sys.metrics_, sys.decisions_);
    entries(ar, sys.job_messages_, 8 + 8);
    entries(ar, sys.accepted_, 8 + 5 * 8 + 1, [&](auto& track) {
      fields(ar, track.tasks_expected, track.tasks_done, track.arrival,
             track.completion, track.deadline, track.failed);
    });
    fields(ar, sys.early_failures_, sys.ran_, sys.last_stream_release_);
  });

  // Every pending event's (time, record) pair, in execution order.
  section(ar, "events", [&] {
    std::vector<Simulator::PendingEvent> pending;
    if constexpr (!kLoading<Ar>) pending = sys.sim_.pending_events();
    const std::size_t n = count(ar, pending.size(), 8 + 2 + 3 * 4 + 8 + 4 +
                                                        8 + 2 * 8 + 2);
    for (std::size_t i = 0; i < n; ++i) {
      Time at = 0.0;
      EventRecord rec;
      if constexpr (!kLoading<Ar>) {
        const EventRecord* saved = sys.sim_.record_of(pending[i].seq);
        RTDS_REQUIRE_MSG(saved != nullptr,
                         "pending event seq "
                             << pending[i].seq << " at t=" << pending[i].at
                             << " carries no replay record — this event "
                                "source does not support checkpointing");
        at = pending[i].at;
        rec = *saved;
      }
      field(ar, at);
      record_io(ar, ctx, rec);
      if constexpr (kLoading<Ar>) repost(ar, sys, at, std::move(rec));
    }
  });
}

void Access::repost(Reader& r, RtdsSystem& sys, Time at, EventRecord rec) {
  using Kind = EventRecord::Kind;
  Simulator& sim = sys.sim_;
  auto* ideal = dynamic_cast<IdealTransport*>(sys.transport_.get());
  auto* cont = dynamic_cast<ContendedTransport*>(sys.transport_.get());
  const auto node = [&]() -> RtdsNode* {
    if (rec.site >= sys.nodes_.size())
      r.fail("event site outside the topology");
    return sys.nodes_[rec.site].get();
  };
  const auto job = [&](const char* what) {
    auto p = std::static_pointer_cast<const Job>(rec.job_ref);
    if (p == nullptr) r.fail(std::string(what) + " event without a job");
    return p;
  };
  const auto body = [&]() {
    auto p = std::static_pointer_cast<const MessageBody>(rec.payload);
    if (p == nullptr) r.fail("message event without a payload");
    return p;
  };
  const auto need = [&](const void* transport, const char* what) {
    if (transport == nullptr) r.fail(what);
  };
  // Re-post through the entry point the original closure called; each
  // draws a fresh sequence >= the saved next_seq, in saved execution
  // order, so ties break exactly as before. Re-annotating keeps the
  // resumed run itself checkpointable.
  const auto post = [&](auto fire) {
    sim.schedule_at(at, std::move(fire));
    sim.annotate(std::move(rec));
  };
  const SiteId from = rec.site, to = rec.peer;
  switch (rec.kind) {
    case Kind::kNone:
      r.fail("event record without a kind");
    case Kind::kFault:
      return post([&sys, ev = fault::FaultEvent{
                             rec.x, static_cast<fault::FaultKind>(rec.small),
                             rec.site, rec.peer}] { sys.apply_fault(ev); });
    case Kind::kArrival:
      return post([n = node(), j = job("arrival")] { n->submit(j); });
    case Kind::kStreamArrival:
      node();  // range check only
      return post([&sys, a = JobArrival{from, job("stream arrival")}] {
        sys.fire_stream_arrival(a);
      });
    case Kind::kEnrollTimeout:
      return post([n = node(), j = rec.job] { n->on_enroll_timeout(j); });
    case Kind::kMapper:
      return post([n = node(), j = rec.job] { n->run_mapper(j); });
    case Kind::kValidateTimeout:
      return post([n = node(), j = rec.job] { n->on_validate_timeout(j); });
    case Kind::kRetryTimer:
      return post([n = node(), j = rec.job, to, gen = rec.a, rto = rec.x] {
        n->on_retry_timer(j, to, gen, rto);
      });
    case Kind::kCompletion:
      return post([n = node(), j = rec.job, task = rec.task, end = rec.x,
                   epoch = rec.a] { n->fire_completion(j, task, end, epoch); });
    case Kind::kLeaseExpiry:
      return post([n = node(), seq = rec.a] { n->on_lease_expired(seq); });
    case Kind::kStartNext:
      return post([n = node()] { n->fire_start_next(); });
    case Kind::kSelfDeliver:
      if (ideal != nullptr)
        return post([ideal, from, to, p = body()] {
          ideal->deliver_self(from, to, *p);
        });
      return post([cont, from, to, p = body()] {
        cont->deliver_self(from, to, *p);
      });
    case Kind::kDeliver:
      need(ideal, "ideal-transport event under a contended config");
      return post([ideal, from, to, p = body()] {
        ideal->deliver(from, to, *p);
      });
    case Kind::kContendedInject:
      need(cont, "contended-transport event under an ideal config");
      return post([cont, from, to, p = body(), size = rec.y] {
        cont->forward(from, to, p, size);
      });
    case Kind::kContendedHop:
      need(cont, "contended-transport event under an ideal config");
      return post([cont, origin = from, cur = to, dest = rec.dest, p = body(),
                   size = rec.y] { cont->hop(origin, cur, dest, p, size); });
  }
}

template <class Ar>
void Access::io(Ar& ar, Ref<Ar, load::ArrivalSource> source) {
  if constexpr (kLoading<Ar>) source.load_state(ar);
  else source.save_state(ar);
}

// --- identity hashes ---

std::uint64_t Access::topology_hash(const Topology& topo) {
  HashAbsorber h;
  h.str("topology");
  h.u64(topo.site_count());
  for (SiteId s = 0; s < topo.site_count(); ++s)
    h.f64(topo.computing_power(s));
  h.u64(topo.link_count());
  for (const Link& link : topo.links()) {
    h.u64(link.a);
    h.u64(link.b);
    h.f64(link.delay);
    h.f64(link.throughput);
  }
  return h.digest();
}

std::uint64_t Access::config_hash(const Topology& topo,
                                  const SystemConfig& cfg) {
  HashAbsorber h;
  h.u64(topology_hash(topo));
  h.str("system_config");
  const RtdsConfig& n = cfg.node;
  h.u64(n.sphere_radius_h);
  h.u64(static_cast<std::uint64_t>(n.sched.policy));
  h.u64(n.sched.exact_max_tasks);
  h.f64(n.sched.observation_window);
  h.f64(n.sched.computing_power);
  h.u64(static_cast<std::uint64_t>(n.mapper.task_priority));
  h.u64(n.mapper.busyness_weighted_laxity ? 1 : 0);
  h.u64(n.mapper.account_data_volumes ? 1 : 0);
  h.f64(n.mapper.link_throughput);
  h.u64(n.mapper.reject_infeasible_windows ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(n.enroll_policy));
  h.u64(static_cast<std::uint64_t>(n.enroll_gate));
  h.f64(n.enroll_timeout_slack);
  h.f64(n.mapper_compute_time);
  h.f64(n.protocol_overhead_factor);
  h.f64(n.protocol_overhead_slack);
  h.f64(n.min_surplus);
  h.u64(n.job_window_surplus ? 1 : 0);
  h.u64(n.initiator_local_knowledge ? 1 : 0);
  h.u64(n.fault_tolerant ? 1 : 0);
  h.f64(n.lock_lease);
  h.u64(n.retransmit ? 1 : 0);
  h.u64(static_cast<std::uint64_t>(n.retransmit_tries));
  h.u64(n.fault_seed);
  h.u64(n.admission_queue_cap);
  h.u64(static_cast<std::uint64_t>(n.shed_policy));
  h.u64(static_cast<std::uint64_t>(cfg.transport_model));
  h.f64(cfg.link_bandwidth);
  h.u64(cfg.measure_pcs_build_cost ? 1 : 0);
  h.u64(cfg.check_invariants ? 1 : 0);
  h.str("fault_plan");
  const fault::FaultPlan& plan = cfg.faults;
  h.u64(plan.events.size());
  for (const fault::FaultEvent& ev : plan.events) {
    h.f64(ev.at);
    h.u64(static_cast<std::uint64_t>(ev.kind));
    h.u64(ev.a);
    h.u64(ev.b);
  }
  h.f64(plan.drop_prob);
  h.f64(plan.extra_delay_max);
  h.f64(plan.dup_prob);
  h.f64(plan.reorder_prob);
  h.f64(plan.reorder_delay_max);
  h.u64(plan.seed);
  return h.digest();
}

std::uint64_t Access::config_hash_of(const RtdsSystem& sys) {
  return config_hash(sys.topo_, sys.cfg_);
}

// --------------------------------------------------------- Snapshot ----

namespace {

/// A sidecar section: a presence flag both sides must agree on, then the
/// extra's own state.
template <class Ar, class T>
void extra(Ar& ar, std::string_view name, const std::string& what, T* p) {
  section(ar, name, [&] {
    if (agreed(ar, p != nullptr,
               p != nullptr
                   ? "snapshot carries no " + what + " but one was supplied"
                   : "snapshot carries " + what + " but none was supplied"))
      field(ar, *p);
  });
}

template <class Ar>
void snapshot_io(Ar& ar, Ref<Ar, RtdsSystem> sys,
                 const SnapshotExtras& extras) {
  if constexpr (kLoading<Ar>) {
    ar.require_config_hash(Access::config_hash_of(sys));
  }
  Context<Ar> ctx;
  Access::io(ar, ctx, sys);
  extra(ar, "obs", "obs metrics", extras.metrics);
  extra(ar, "collector", "steady-state collector", extras.collector);
  extra(ar, "source", "arrival source", extras.source);
}

}  // namespace

std::string Snapshot::save(const RtdsSystem& sys,
                           const SnapshotExtras& extras) {
  Writer w(kFormatVersion, Access::config_hash_of(sys));
  snapshot_io(w, sys, extras);
  return w.finish();
}

void Snapshot::save_file(const RtdsSystem& sys, const std::string& path,
                         const SnapshotExtras& extras) {
  Writer w(kFormatVersion, Access::config_hash_of(sys));
  snapshot_io(w, sys, extras);
  w.write_file(path);
}

void Snapshot::load(std::string bytes, RtdsSystem& sys,
                    const SnapshotExtras& extras) {
  Reader r(std::move(bytes), "snapshot");
  snapshot_io(r, sys, extras);
}

void Snapshot::load_file(const std::string& path, RtdsSystem& sys,
                         const SnapshotExtras& extras) {
  Reader r = Reader::from_file(path, "snapshot");
  snapshot_io(r, sys, extras);
}

}  // namespace rtds::snap
