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
// events are typed data (sim/event.hpp): save writes them straight from
// the queue, and load validates each and posts it back to its owner in
// saved execution order, so the restored queue pops identically to the
// saved one.
#include "snap/snapshot.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
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
/// on throwaway simulators and the baseline policies post no typed events,
/// so meeting one of their payloads in a checkpoint is a contract
/// violation, not a format gap.
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

/// A site id an event reads: loading rejects one outside the topology.
template <class S>
struct SiteSlot {
  S& site;
  std::size_t sites;
  template <class Ar>
  void io(Ar& ar) const {
    field(ar, site);
    if constexpr (kLoading<Ar>) {
      if (site >= sites)
        ar.fail("event names site " + std::to_string(site) +
                " outside the topology");
    }
  }
};

/// Event kind bytes. A kind is the Event alternative's index, except that
/// an arrival is kind 2 in a closed run and 3 in an open one (once two
/// alternatives), so the alternatives after ev::Arrival are written one
/// above their index.
constexpr std::size_t kArrivalIndex = 2;
static_assert(std::is_same_v<std::variant_alternative_t<kArrivalIndex, Event>,
                             ev::Arrival>);
constexpr std::uint8_t kStreamArrivalKind = kArrivalIndex + 1;

/// A pending typed event as one flat record: u8 kind; the slots (small,
/// site, peer, dest, job, task, a, x, y), zero where the kind reads
/// nothing (a slot written as a typed zero temporary is read and dropped
/// on load); a job presence flag and the job; a payload presence flag and
/// the payload. `streamed` says whether an arrival belongs to an open run:
/// saving writes it into the kind, loading reads it back.
template <class Ar>
void event_io(Ar& ar, Context<Ar>& ctx, std::size_t sites,
              Ref<Ar, Event> event, Ref<Ar, bool> streamed) {
  using u8 = std::uint8_t;
  using u32 = std::uint32_t;
  using u64 = std::uint64_t;
  const std::size_t index = event.index();
  auto kind = static_cast<std::uint8_t>(
      index < kArrivalIndex || (index == kArrivalIndex && !streamed)
          ? index
          : index + 1);
  field(ar, kind);
  if constexpr (kLoading<Ar>) {
    if (kind == 0 || kind > std::variant_size_v<Event>)
      ar.fail("event kind " + std::to_string(kind) + " out of range");
    streamed = kind == kStreamArrivalKind;
    const std::size_t alternative = kind <= kArrivalIndex ? kind : kind - 1u;
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((alternative == I ? void(event.template emplace<I>()) : void()), ...);
    }(std::make_index_sequence<std::variant_size_v<Event>>{});
  }
  std::visit(
      [&](auto& e) {
        using E = std::remove_cvref_t<decltype(e)>;
        const auto site = [&](auto& s) {
          return SiteSlot<std::remove_reference_t<decltype(s)>>{s, sites};
        };
        if constexpr (std::is_same_v<E, ev::Fault>) {
          fields(ar, as_u8<fault::FaultKind::kHeal>(e.fault.kind, "fault kind"),
                 e.fault.a, e.fault.b, u32{}, u64{}, u32{}, u64{}, e.fault.at,
                 0.0);
        } else if constexpr (std::is_same_v<E, ev::Arrival> ||
                             std::is_same_v<E, ev::StartNext>) {
          fields(ar, u8{}, site(e.site), u32{}, u32{}, u64{}, u32{}, u64{},
                 0.0, 0.0);
        } else if constexpr (std::is_same_v<E, ev::EnrollTimeout> ||
                             std::is_same_v<E, ev::Mapper> ||
                             std::is_same_v<E, ev::ValidateTimeout>) {
          fields(ar, u8{}, site(e.site), u32{}, u32{}, e.job, u32{}, u64{},
                 0.0, 0.0);
        } else if constexpr (std::is_same_v<E, ev::RetryTimer>) {
          fields(ar, u8{}, site(e.site), site(e.peer), u32{}, e.job, u32{},
                 e.gen, e.rto, 0.0);
        } else if constexpr (std::is_same_v<E, ev::Completion>) {
          fields(ar, u8{}, site(e.site), u32{}, u32{}, e.job, e.task, e.epoch,
                 e.end, 0.0);
        } else if constexpr (std::is_same_v<E, ev::LeaseExpiry>) {
          fields(ar, u8{}, site(e.site), u32{}, u32{}, u64{}, u32{},
                 e.lock_seq, 0.0, 0.0);
        } else if constexpr (std::is_same_v<E, ev::SelfDeliver> ||
                             std::is_same_v<E, ev::Deliver>) {
          fields(ar, u8{}, site(e.from), site(e.to), u32{}, u64{}, u32{},
                 u64{}, 0.0, 0.0);
        } else if constexpr (std::is_same_v<E, ev::ContendedInject>) {
          fields(ar, u8{}, site(e.from), site(e.to), u32{}, u64{}, u32{},
                 u64{}, 0.0, e.size_units);
        } else if constexpr (std::is_same_v<E, ev::ContendedHop>) {
          fields(ar, u8{}, site(e.origin), site(e.cur), site(e.dest), u64{},
                 u32{}, u64{}, 0.0, e.size_units);
        }
        // The job and the payload travel exactly when the kind holds them.
        constexpr bool has_job = requires { e.job.get(); };
        constexpr bool has_body = requires { e.body; };
        agreed(ar, has_job, has_job ? "arrival event without a job"
                                    : "event carries a job it does not read");
        if constexpr (has_job) {
          field(ar, in(ctx, e.job));
          if constexpr (kLoading<Ar>) {
            if (e.job == nullptr) ar.fail("arrival event without a job");
          }
        }
        agreed(ar, has_body,
               has_body ? "message event without a payload"
                        : "event carries a payload it does not read");
        if constexpr (!requires { e.body.get(); }) {
          if constexpr (has_body) payload_io(ar, ctx, e.body);
        } else if constexpr (kLoading<Ar>) {
          auto body = std::make_shared<MessageBody>();
          payload_io(ar, ctx, *body);
          e.body = std::move(body);
        } else {
          payload_io(ar, ctx, *e.body);
        }
      },
      event);
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

  // Every pending event's (time, typed event) pair, in execution order:
  // the queue's events merged with a closed run's not-yet-posted arrivals,
  // each of which would be queued under its reserved seq had start()
  // posted them all. Loading reserves one seq per record, in record order
  // from the saved next_seq, and posts each event under its own, so every
  // tie-break holds and everything scheduled after resume draws sequences
  // above them all; closed-run arrivals go back to the arrival cursor.
  section(ar, "events", [&] {
    std::vector<Simulator::PendingEvent> pending;
    std::vector<Event> unposted;
    if constexpr (!kLoading<Ar>) {
      pending = sys.sim_.pending_events();
      const std::size_t queued = pending.size();
      const auto rest = std::span(sys.closed_).subspan(sys.closed_next_);
      unposted.reserve(rest.size());  // pending points into it
      for (const RtdsSystem::ClosedArrival& a : rest) {
        unposted.push_back(ev::Arrival{a.site, a.job});
        pending.push_back({RtdsSystem::queued_time(*a.job), a.seq,
                           &unposted.back()});
      }
      std::inplace_merge(
          pending.begin(), pending.begin() + queued, pending.end(),
          [](const auto& x, const auto& y) {
            return x.at < y.at || (x.at == y.at && x.seq < y.seq);
          });
    }
    const std::size_t n = count(ar, pending.size(), 8 + 2 + 3 * 4 + 8 + 4 +
                                                        8 + 2 * 8 + 2);
    std::uint64_t seq = 0;
    if constexpr (kLoading<Ar>) seq = sys.sim_.reserve_seqs(n);
    for (std::size_t i = 0; i < n; ++i, ++seq) {
      if constexpr (!kLoading<Ar>) {
        const Simulator::PendingEvent& p = pending[i];
        RTDS_REQUIRE_MSG(p.event != nullptr,
                         "pending event seq " << p.seq << " at t=" << p.at
                             << " is a closure: only typed events "
                                "(sim/event.hpp) can be checkpointed");
        field(ar, p.at);
        event_io(ar, ctx, sys.nodes_.size(), *p.event, sys.streamed_);
      } else {
        Time at = 0.0;
        Event event;
        bool streamed = false;
        field(ar, at);
        if (!time_ge(at, sys.sim_.now()))  // NaN fails too
          ar.fail("pending event at t=" + std::to_string(at) +
                  " before the clock t=" + std::to_string(sys.sim_.now()));
        event_io(ar, ctx, sys.nodes_.size(), event, streamed);
        const bool ideal = sys.cfg_.transport_model == TransportModel::kIdeal;
        if (std::holds_alternative<ev::Deliver>(event) && !ideal)
          ar.fail("ideal-transport event under a contended config");
        if ((std::holds_alternative<ev::ContendedInject>(event) ||
             std::holds_alternative<ev::ContendedHop>(event)) &&
            ideal)
          ar.fail("contended-transport event under an ideal config");
        if (const auto* f = std::get_if<ev::Fault>(&event)) {
          const std::string why = sys.fault_state_ == nullptr
                                      ? "without a fault plan"
                                      : f->fault.problem(sys.topo_);
          if (!why.empty()) ar.fail("fault event " + why);
        }
        if (auto* a = std::get_if<ev::Arrival>(&event)) {
          if (streamed ? !sys.closed_.empty() : sys.streamed_)
            ar.fail("snapshot mixes closed-run and streamed arrivals");
          sys.streamed_ = streamed;
          if (!streamed) {
            if (at != RtdsSystem::queued_time(*a->job))
              ar.fail("closed-run arrival at t=" + std::to_string(at) +
                      " is not queued at its job's release");
            if (!sys.closed_.empty() &&
                at < RtdsSystem::queued_time(*sys.closed_.back().job))
              ar.fail("closed-run arrivals out of time order");
            sys.closed_.push_back({std::move(a->job), seq, a->site});
            continue;
          }
        }
        // The message kinds go back to the transport, the rest to the
        // system.
        const bool message = std::visit(
            [](const auto& e) { return requires { e.body; }; }, event);
        sys.sim_.post_reserved(
            at, seq,
            message ? static_cast<EventOwner&>(*sys.transport_) : sys,
            std::move(event));
      }
    }
    if constexpr (kLoading<Ar>) {
      if (!sys.closed_.empty()) sys.post_next_arrival();
    }
  });
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
