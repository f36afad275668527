#include "load/source.hpp"

#include <algorithm>
#include <utility>

#include "dag/analysis.hpp"
#include "snap/access.hpp"
#include "snap/io.hpp"

namespace rtds::load {

void ArrivalSource::save_state(snap::Writer&) const {
  RTDS_REQUIRE_MSG(false,
                   "this arrival source is not checkpointable (no save_state)");
}

void ArrivalSource::load_state(snap::Reader& r) {
  r.fail("this arrival source is not checkpointable (no load_state)");
}

const char* to_string(ArrivalKind kind) {
  switch (kind) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kBursty: return "bursty";
    case ArrivalKind::kDiurnal: return "diurnal";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

ArrivalKind arrival_kind_from_string(const std::string& name) {
  if (name == "poisson") return ArrivalKind::kPoisson;
  if (name == "bursty") return ArrivalKind::kBursty;
  if (name == "diurnal") return ArrivalKind::kDiurnal;
  if (name == "trace") return ArrivalKind::kTrace;
  RTDS_REQUIRE_MSG(false, "unknown arrival kind '" << name
                          << "' (poisson|bursty|diurnal|trace)");
}

std::vector<DiurnalSegment> default_diurnal_curve() {
  // Repeating 400-unit "day", mean multiplier exactly 1.0:
  // (150·0.2 + 50·1.0 + 150·1.8 + 50·1.0) / 400 = 1.0.
  return {{150.0, 0.2}, {50.0, 1.0}, {150.0, 1.8}, {50.0, 1.0}};
}

namespace {

/// Stream seed for (workload seed, site): the exp/seed trial_seed recipe,
/// so a site's content is independent of generation interleaving and of
/// every other site's stream.
std::uint64_t site_stream_seed(std::uint64_t seed, SiteId site) {
  return SplitMix64(seed ^ (0x9e3779b97f4a7c15ULL *
                            (static_cast<std::uint64_t>(site) + 1)))
      .next();
}

void validate_spec(const ArrivalSpec& spec) {
  RTDS_REQUIRE(spec.site_count >= 1);
  if (spec.kind == ArrivalKind::kTrace) return;  // content comes from the trace
  const WorkloadConfig& cfg = spec.workload;
  RTDS_REQUIRE(cfg.arrival_rate_per_site > 0.0);
  RTDS_REQUIRE(!cfg.shape_mix.empty());
  RTDS_REQUIRE(cfg.min_tasks >= 1 && cfg.min_tasks <= cfg.max_tasks);
  RTDS_REQUIRE(cfg.laxity_min > 0.0 && cfg.laxity_min <= cfg.laxity_max);
  RTDS_REQUIRE(cfg.data_volume_min >= 0.0);
  RTDS_REQUIRE(cfg.data_volume_min <= cfg.data_volume_max ||
               cfg.data_volume_max == 0.0);
  if (spec.kind == ArrivalKind::kBursty) {
    RTDS_REQUIRE(cfg.burst_on_mean > 0.0 && cfg.burst_off_mean > 0.0);
    RTDS_REQUIRE(cfg.burst_multiplier >= 1.0);
  }
  if (spec.kind == ArrivalKind::kDiurnal) {
    for (const auto& seg : spec.diurnal) {
      RTDS_REQUIRE_MSG(seg.length > 0.0 && seg.multiplier >= 0.0,
                       "diurnal segments need length > 0, multiplier >= 0");
    }
  }
}

/// One site's generator: owns an independent RNG stream and the arrival
/// process state, and synthesizes jobs in exactly the closed generator's
/// draw order (interarrival, shape, tasks, dag, volumes, laxity).
class SiteStream {
 public:
  SiteStream(const ArrivalSpec& spec, SiteId site)
      : spec_(&spec),
        site_(site),
        rng_(site_stream_seed(spec.workload.seed, site)),
        curve_(spec.kind == ArrivalKind::kDiurnal
                   ? (spec.diurnal.empty() ? default_diurnal_curve()
                                           : spec.diurnal)
                   : std::vector<DiurnalSegment>{}) {
    // Mirror generate_workload: the MMPP starts in the OFF phase with an
    // exponential residual. Only bursty draws it, so the other kinds'
    // streams start at the same RNG position as their first arrival draw.
    if (spec.kind == ArrivalKind::kBursty)
      phase_left_ = rng_.exponential(1.0 / spec.workload.burst_off_mean);
    if (!curve_.empty()) seg_left_ = curve_[0].length;
  }

  SiteId site() const { return site_; }

  /// Checkpoint capture: the RNG words and process-phase state (spec_,
  /// site_ and the resolved curve_ are reconstructed, never stored).
  template <class Ar, class Self>
  static void io(Ar& ar, Self& s) {
    snap::fields(ar, s.rng_, s.t_, s.in_burst_, s.phase_left_, s.seg_,
                 s.seg_left_);
    if constexpr (snap::kLoading<Ar>) {
      if (!s.curve_.empty() && s.seg_ >= s.curve_.size())
        ar.fail("diurnal segment index outside the resolved curve");
    }
  }

  /// Generates the next arrival (id 0 — the merger assigns ids in emission
  /// order). Generated streams never end.
  JobArrival generate() {
    const WorkloadConfig& cfg = spec_->workload;
    t_ += next_gap();
    const auto shape = cfg.shape_mix[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(cfg.shape_mix.size()) - 1))];
    const auto tasks = static_cast<std::size_t>(
        rng_.uniform_int(static_cast<std::int64_t>(cfg.min_tasks),
                         static_cast<std::int64_t>(cfg.max_tasks)));
    auto job = std::make_shared<Job>();
    job->id = 0;
    job->dag = make_shape(shape, tasks, cfg.costs, rng_);
    if (cfg.data_volume_max > 0.0)
      job->dag = decorate_volumes(std::move(job->dag), cfg.data_volume_min,
                                  cfg.data_volume_max, rng_);
    job->release = t_;
    const double laxity = rng_.uniform(cfg.laxity_min, cfg.laxity_max);
    const Time base = cfg.deadline_model == DeadlineModel::kCriticalPath
                          ? critical_path_length(job->dag)
                          : job->dag.total_work();
    job->deadline = t_ + laxity * base;
    return JobArrival{site_, std::move(job)};
  }

 private:
  /// Next inter-arrival for the configured process. Bursty is the closed
  /// generator's MMPP phase walk; diurnal steps the repeating rate curve
  /// the same way (per-segment exponential draws, thinning-free).
  Time next_gap() {
    const WorkloadConfig& cfg = spec_->workload;
    switch (spec_->kind) {
      case ArrivalKind::kPoisson:
        return rng_.exponential(cfg.arrival_rate_per_site);
      case ArrivalKind::kBursty: {
        Time waited = 0.0;
        for (;;) {
          const double rate =
              in_burst_ ? cfg.arrival_rate_per_site * cfg.burst_multiplier
                        : cfg.arrival_rate_per_site /
                              (1.0 + cfg.burst_multiplier);
          const Time gap = rng_.exponential(rate);
          if (gap <= phase_left_) {
            phase_left_ -= gap;
            return waited + gap;
          }
          waited += phase_left_;
          in_burst_ = !in_burst_;
          phase_left_ = rng_.exponential(
              1.0 / (in_burst_ ? cfg.burst_on_mean : cfg.burst_off_mean));
        }
      }
      case ArrivalKind::kDiurnal: {
        Time waited = 0.0;
        for (;;) {
          const double rate =
              cfg.arrival_rate_per_site * curve_[seg_].multiplier;
          if (rate > 0.0) {
            const Time gap = rng_.exponential(rate);
            if (gap <= seg_left_) {
              seg_left_ -= gap;
              return waited + gap;
            }
          }
          waited += seg_left_;
          seg_ = (seg_ + 1) % curve_.size();
          seg_left_ = curve_[seg_].length;
        }
      }
      case ArrivalKind::kTrace: break;  // trace streams never reach here
    }
    RTDS_CHECK_MSG(false, "unreachable arrival kind");
  }

  const ArrivalSpec* spec_;
  SiteId site_;
  Rng rng_;
  Time t_ = 0.0;
  bool in_burst_ = false;   // bursty phase state
  Time phase_left_ = 0.0;
  std::vector<DiurnalSegment> curve_;  // diurnal curve (resolved)
  std::size_t seg_ = 0;
  Time seg_left_ = 0.0;
};

/// Lazy merged source: one SiteStream per site, each holding exactly one
/// pending arrival; a min-heap keyed (release, site) picks the global next
/// and the popped stream generates its successor. O(sites) live state.
class GeneratedSource final : public ArrivalSource {
 public:
  explicit GeneratedSource(const ArrivalSpec& spec) : spec_(spec) {
    streams_.reserve(spec_.site_count);
    pending_.reserve(spec_.site_count);
    heap_.reserve(spec_.site_count);
    for (SiteId s = 0; s < spec_.site_count; ++s) {
      streams_.emplace_back(spec_, s);
      pending_.push_back(streams_.back().generate());
      heap_.push_back(Key{pending_.back().job->release, s});
    }
    std::make_heap(heap_.begin(), heap_.end(), Later{});
  }

  std::optional<JobArrival> next() override {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const SiteId site = heap_.back().site;
    JobArrival out = std::exchange(pending_[site], streams_[site].generate());
    heap_.back().release = pending_[site].job->release;
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    // Emission order == (release, site) order; fresh job, sole owner here.
    const_cast<Job&>(*out.job).id = ++emitted_;
    return out;
  }

  /// The heap array is saved VERBATIM (not re-heapified on load): the saved
  /// layout already satisfies the heap property, and std::make_heap could
  /// legally produce a different-but-equivalent layout whose later pop/push
  /// sequence diverges. Restoring the exact array keeps the resumed
  /// emission order bit-identical to the uninterrupted stream.
  void save_state(snap::Writer& w) const override { io(w, *this); }
  void load_state(snap::Reader& r) override { io(r, *this); }

 private:
  /// Heap entry: the pending arrival's release, copied inline so sifting
  /// never dereferences the Job, and the site whose arrival it is.
  struct Key {
    Time release;
    SiteId site;
  };
  /// Max-heap comparator inverted into a min-heap on (release, site).
  struct Later {
    bool operator()(const Key& a, const Key& b) const {
      if (a.release != b.release) return a.release > b.release;
      return a.site > b.site;
    }
  };

  /// Per heap entry, in heap order: its site, the arrival's site and job.
  template <class Ar, class Self>
  static void io(Ar& ar, Self& self) {
    snap::field(ar, self.emitted_);
    snap::agreed(
        ar, self.streams_.size(),
        "generated source spans a different site count than this spec");
    for (auto& stream : self.streams_) SiteStream::io(ar, stream);
    snap::agreed(ar, self.heap_.size(),
                 "generated source heap size does not match this spec");
    snap::Context<Ar> ctx;
    for (auto& key : self.heap_) {
      snap::field(ar, key.site);
      if constexpr (snap::kLoading<Ar>) {
        if (key.site >= self.pending_.size())
          ar.fail("pending arrival for a site outside this spec");
      }
      auto& a = self.pending_[key.site];
      snap::fields(ar, a.site, snap::in(ctx, a.job));
      if constexpr (snap::kLoading<Ar>) {
        if (a.job == nullptr) ar.fail("pending arrival without a job");
        key.release = a.job->release;
      }
    }
  }

  ArrivalSpec spec_;  // owned copy: streams reference its workload/curve
  std::vector<SiteStream> streams_;
  std::vector<JobArrival> pending_;  // per site: its one pending arrival
  std::vector<Key> heap_;
  JobId emitted_ = 0;
};

class TraceSource final : public ArrivalSource {
 public:
  explicit TraceSource(const ArrivalSpec& spec)
      : trace_(spec.trace), site_count_(spec.site_count) {
    Time prev = 0.0;
    for (const auto& a : trace_) {
      RTDS_REQUIRE(a.job != nullptr);
      RTDS_REQUIRE_MSG(a.site < site_count_,
                       "trace site " << a.site << " outside the "
                                     << site_count_ << "-site system");
      RTDS_REQUIRE_MSG(a.job->release >= prev,
                       "trace replay requires release-sorted arrivals");
      prev = a.job->release;
    }
  }

  std::optional<JobArrival> next() override {
    if (pos_ >= trace_.size()) return std::nullopt;
    return trace_[pos_++];
  }

  /// The trace itself is static configuration; only the cursor is live.
  void save_state(snap::Writer& w) const override { io(w, *this); }
  void load_state(snap::Reader& r) override { io(r, *this); }

 private:
  template <class Ar, class Self>
  static void io(Ar& ar, Self& self) {
    snap::agreed(ar, self.trace_.size(),
                 "trace source length does not match this spec");
    snap::field(ar, self.pos_);
    if constexpr (snap::kLoading<Ar>) {
      if (self.pos_ > self.trace_.size())
        ar.fail("trace cursor beyond the trace");
    }
  }

  std::vector<JobArrival> trace_;
  std::size_t site_count_;
  std::size_t pos_ = 0;
};

}  // namespace

std::unique_ptr<ArrivalSource> make_arrival_source(const ArrivalSpec& spec) {
  validate_spec(spec);
  if (spec.kind == ArrivalKind::kTrace)
    return std::make_unique<TraceSource>(spec);
  return std::make_unique<GeneratedSource>(spec);
}

std::vector<JobArrival> drain(ArrivalSource& source, Time duration) {
  RTDS_REQUIRE(duration > 0.0);
  std::vector<JobArrival> out;
  while (auto a = source.next()) {
    if (a->job->release >= duration) break;  // stream is time-ordered: done
    out.push_back(std::move(*a));
  }
  return out;
}

std::vector<JobArrival> generate_open_workload(const ArrivalSpec& spec,
                                               Time duration) {
  validate_spec(spec);
  RTDS_REQUIRE(duration > 0.0);
  if (spec.kind == ArrivalKind::kTrace) {
    std::vector<JobArrival> out;
    for (const auto& a : spec.trace) {
      RTDS_REQUIRE_MSG(a.site < spec.site_count,
                       "trace site " << a.site << " outside the "
                                     << spec.site_count << "-site system");
      if (a.job->release < duration) out.push_back(a);
    }
    return out;
  }
  std::vector<JobArrival> arrivals;
  for (SiteId site = 0; site < spec.site_count; ++site) {
    SiteStream stream(spec, site);
    for (;;) {
      JobArrival a = stream.generate();
      if (a.job->release >= duration) break;
      arrivals.push_back(std::move(a));
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const JobArrival& a, const JobArrival& b) {
              if (a.job->release != b.job->release)
                return a.job->release < b.job->release;
              return a.site < b.site;
            });
  JobId next_id = 1;
  for (auto& a : arrivals)
    const_cast<Job&>(*a.job).id = next_id++;  // fresh jobs; sole owner here
  return arrivals;
}

}  // namespace rtds::load
