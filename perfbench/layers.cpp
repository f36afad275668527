// Per-layer attribution of one workload, measured from outside the program.
//
// Three passes over the same inputs:
//  1. an untraced run of every case — the denominator of obs.trace_overhead;
//  2. a traced run with an obs::Scope bound (MetricsBuffer counts plus a
//     TraceRecorder timeline), the in-run probes timing the pull closure,
//     the decision/completion hooks and every step_events chunk, and the
//     wall-clock profiler on for its in-run sys.repair total;
//  3. replays that time one layer's public functions on that run's own
//     inputs: set-up (phased_apsp, Pcs::build), the event queue, the
//     transport, routing repair and the checker, the mapper, admit_edf,
//     Hopcroft–Karp, and each family's Policy::run.
// Each replay checks that it saw the run's input, and the attributed time
// is reconciled against the traced wall time.
#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <unordered_map>

#include "core/mapper.hpp"
#include "matching/bipartite.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "replay.hpp"
#include "routing/pcs.hpp"
#include "sched/admission.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace rtds::perfbench {

namespace {

constexpr int kRepeats = 3;  ///< set-up and queue/transport replays; median
constexpr std::size_t kMaxMapperSamples = 4000;
constexpr std::size_t kMaxAdmitSamples = 50000;
/// Synthetic endorsements: each ACS site endorses each logical processor
/// with this probability (the run's endorsement lists are not traced).
constexpr double kEndorseProbability = 0.75;
/// Replayed repair + check against the profiler's in-run sys.repair, as a
/// share of the latter. Checked only when sys.repair is long enough to time.
constexpr double kRepairTolerance = 0.5;
constexpr double kRepairReconcileMinMs = 50.0;

/// Benchmark-side spans (name, start, end, parent), kept in memory and
/// written out when the traced pass ends.
class SpanLog {
 public:
  class Span {
   public:
    Span(SpanLog& log, std::string name)
        : log_(log), index_(log.open(std::move(name))) {}
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Ends the span (once) and returns its duration in seconds.
    double close() {
      if (!closed_) log_.close(index_);
      closed_ = true;
      return log_.seconds(index_);
    }

   private:
    SpanLog& log_;
    std::size_t index_;
    bool closed_ = false;
  };

  void write_jsonl(std::ostream& os) const {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      os << "{\"id\":" << i << ",\"name\":\"" << e.name
         << "\",\"start_us\":" << micros(e.start)
         << ",\"end_us\":" << micros(e.end) << ",\"parent\":" << e.parent
         << "}\n";
    }
  }

  /// Per-name count, total and self time (duration minus the part covered
  /// by child spans), sorted by self time.
  void print_self_times(std::ostream& os) const {
    std::vector<double> child(entries_.size(), 0.0);
    for (std::size_t i = 0; i < entries_.size(); ++i)
      if (entries_[i].parent >= 0)
        child[static_cast<std::size_t>(entries_[i].parent)] += seconds(i);
    struct Row {
      std::size_t count = 0;
      double total = 0.0, self = 0.0;
    };
    std::map<std::string, Row> rows;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      Row& r = rows[entries_[i].name];
      ++r.count;
      r.total += seconds(i);
      r.self += seconds(i) - child[i];
    }
    std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.self > b.second.self;
    });
    os << "benchmark-side spans (self time = duration - child spans):\n";
    for (const auto& [name, r] : sorted) {
      char line[160];
      std::snprintf(line, sizeof line, "  %-28s %5zu  total %10.3f ms  self %10.3f ms\n",
                    name.c_str(), r.count, r.total * 1e3, r.self * 1e3);
      os << line;
    }
  }

 private:
  struct Entry {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::ptrdiff_t parent;
  };

  std::size_t open(std::string name) {
    const std::ptrdiff_t parent =
        open_.empty() ? -1 : static_cast<std::ptrdiff_t>(open_.back());
    entries_.push_back(Entry{std::move(name), Clock::now(), {}, parent});
    open_.push_back(entries_.size() - 1);
    return entries_.size() - 1;
  }
  void close(std::size_t i) {
    entries_[i].end = Clock::now();
    open_.erase(std::find(open_.begin(), open_.end(), i));
  }
  double seconds(std::size_t i) const {
    return std::chrono::duration<double>(entries_[i].end - entries_[i].start)
        .count();
  }
  long long micros(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               t - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Entry> entries_;
  std::vector<std::size_t> open_;
};

using Span = SpanLog::Span;

/// What the traced run's timeline says about one case.
struct Timeline {
  std::vector<LoggedSend> sends;
  struct MapCall {
    JobId job;
    SiteId site;
    Time at;
  };
  std::vector<MapCall> map_calls;                       ///< "map" span ends
  std::unordered_map<JobId, std::uint64_t> enrolled;     ///< "enroll" end arg
  std::unordered_map<JobId, std::uint64_t> validate_acs; ///< "validate" begin arg
  std::uint64_t matchings = 0;                           ///< "validate" ends
};

int category_of(const char* name) {
  for (int c = kMsgEnroll; c <= kMsgDispatchAck; ++c)
    if (std::strcmp(name, msg_category_name(c)) == 0) return c;
  return 0;
}

Timeline read_timeline(const obs::TraceRecorder& rec,
                       const std::unordered_map<JobId, const Job*>& jobs) {
  using Phase = obs::TraceRecorder::Phase;
  Timeline t;
  // Validation and dispatch sends follow, in the same event, a protocol
  // span event of their job at the sending site: that names the job whose
  // task count sets the message volume.
  std::unordered_map<SiteId, JobId> last_job;
  for (const auto& e : rec.events()) {
    if (std::strcmp(e.cat, "protocol") == 0) {
      last_job[e.site] = e.id;
      if (std::strcmp(e.name, "enroll") == 0 && e.ph == Phase::kEnd) {
        t.enrolled[e.id] = e.arg;
      } else if (std::strcmp(e.name, "map") == 0 && e.ph == Phase::kEnd) {
        t.map_calls.push_back({e.id, e.site, e.ts});
      } else if (std::strcmp(e.name, "validate") == 0) {
        if (e.ph == Phase::kBegin)
          t.validate_acs[e.id] = e.arg;
        else
          ++t.matchings;
      }
    } else if (std::strcmp(e.cat, "net") == 0) {
      LoggedSend s;
      s.at = e.ts;
      s.from = e.site;
      s.to = static_cast<SiteId>(e.id);
      s.hops = static_cast<std::uint32_t>(e.arg);
      s.category = category_of(e.name);
      if (s.category == kMsgValidate || s.category == kMsgDispatch) {
        const auto lj = last_job.find(s.from);
        if (lj != last_job.end())
          if (const auto j = jobs.find(lj->second); j != jobs.end())
            s.size = 1.0 + static_cast<double>(j->second->dag.task_count());
      }
      t.sends.push_back(s);
    }
  }
  return t;
}

/// Sums over the cases of a workload.
struct Totals {
  double apsp_s = 0.0, pcs_s = 0.0, ctor_s = 0.0;
  double untraced_wall_s = 0.0, traced_wall_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> chunk_ms;
  double queue_s = 0.0;
  std::uint64_t queue_events = 0;
  double transport_s = 0.0;
  std::uint64_t sends = 0;
  double repair_s = 0.0, check_s = 0.0;
  double mapper_s = 0.0;
  std::uint64_t mapper_calls = 0;
  double hk_s = 0.0;
  std::uint64_t hk_calls = 0, matchings = 0, matched = 0;
  double admit_s = 0.0;
  std::uint64_t admit_calls = 0;
  double arrival_s = 0.0;
  std::uint64_t pulls = 0;
  double inrun_arrival_s = 0.0;  ///< the part timed inside a run
  double collector_s = 0.0;
  std::uint64_t collector_calls = 0;
  std::map<std::string, double> family_s;
  obs::MetricsBuffer counts;
  std::vector<load::WindowCell> windows;
};

double profiler_total_ms(const std::string& phase) {
  std::ostringstream os;
  obs::Profiler::instance().report(os);
  std::istringstream is(os.str());
  std::string line;
  while (std::getline(is, line)) {
    std::istringstream row(line);
    std::string name;
    double count = 0.0, total_ms = 0.0;
    if (row >> name >> count >> total_ms && name == phase) return total_ms;
  }
  return 0.0;
}

/// The replays of one traced case.
void replay_case(const RtdsCase& c, const CaseResult& run,
                 const obs::TraceRecorder& rec, const Probe& probe,
                 SpanLog& spans, Totals& t, std::vector<std::string>& failures) {
  const std::size_t h = c.cfg.node.sphere_radius_h;
  const std::size_t n = c.topo.site_count();
  const std::vector<JobArrival>& arrivals = c.stream ? probe.pulled : c.arrivals;
  std::unordered_map<JobId, const Job*> jobs;
  jobs.reserve(arrivals.size());
  for (const auto& a : arrivals) jobs.emplace(a.job->id, a.job.get());
  const Timeline tl = read_timeline(rec, jobs);

  // Set-up: the constructor's parts, each the median of kRepeats.
  std::vector<RoutingTable> tables;
  {
    Span setup(spans, "setup");
    std::vector<double> apsp, pcs, ctor;
    for (int k = 0; k < kRepeats; ++k) {
      {
        Span s(spans, "routing.phased_apsp");
        tables = phased_apsp(c.topo, 2 * h);
        apsp.push_back(s.close());
      }
      {
        Span s(spans, "routing.pcs_build");
        std::vector<Pcs> spheres;
        spheres.reserve(n);
        for (SiteId site = 0; site < n; ++site)
          spheres.push_back(Pcs::build(tables, site, h));
        pcs.push_back(s.close());
      }
      {
        Span s(spans, "core.construct");
        const RtdsSystem system(c.topo, c.cfg);
        ctor.push_back(s.close());
      }
    }
    t.apsp_s += median(apsp);
    t.pcs_s += median(pcs);
    t.ctor_s += median(ctor);
  }

  // Event queue and transport: the same schedule, bare and through a
  // fresh transport.
  ArrivalTimes at;
  at.chained = c.stream.has_value();
  at.at.reserve(arrivals.size());
  for (const auto& a : arrivals) at.at.push_back(a.job->release);
  std::vector<Time> delays;
  delays.reserve(tl.sends.size());
  for (const LoggedSend& s : tl.sends) {
    const RouteLine* line = tables[s.from].find(s.to);
    delays.push_back(line != nullptr ? line->dist : 0.0);
  }
  {
    std::vector<double> queue_s, transport_s;
    QueueReplay q;
    TransportReplay tr;
    for (int k = 0; k < kRepeats; ++k) {
      {
        Span s(spans, "replay.queue");
        q = replay_queue(at, tl.sends, delays);
      }
      queue_s.push_back(q.wall_s);
      {
        Span s(spans, "replay.transport");
        tr = replay_transport(c, tables, at, tl.sends);
      }
      transport_s.push_back(tr.wall_s);
    }
    t.queue_s += median(queue_s);
    t.queue_events += q.events;
    t.transport_s += median(transport_s) - median(queue_s);
    t.sends += tl.sends.size();
    if (tr.delivered != tl.sends.size())
      failures.push_back("transport replay delivered " +
                         std::to_string(tr.delivered) + " of " +
                         std::to_string(tl.sends.size()) + " logged sends");
    if (tr.link_messages != run.metrics.transport.total_link_messages)
      failures.push_back(
          "transport replay charged " + std::to_string(tr.link_messages) +
          " link messages, the run " +
          std::to_string(run.metrics.transport.total_link_messages));
  }

  // Routing repair and the checker over the plan's topology events.
  {
    Span s(spans, "replay.repair");
    RepairReplay replay(c, tables, /*check=*/true);
    for (const auto& ev : c.cfg.faults.events) replay.apply(ev);
    t.check_s += replay.check_s();
    t.repair_s += s.close() - replay.check_s();
    if (!same_routes(replay.tables(), probe.final_tables))
      failures.push_back("repair replay tables differ from the run's");
  }

  // Mapper: the run's own DAGs and sphere sizes, synthetic surpluses.
  std::vector<std::pair<JobId, std::uint32_t>> used;
  {
    std::vector<MapperInput> inputs;
    std::vector<JobId> ids;
    const std::size_t stride =
        std::max<std::size_t>(1, (tl.map_calls.size() + kMaxMapperSamples - 1) /
                                     kMaxMapperSamples);
    for (std::size_t i = 0; i < tl.map_calls.size(); i += stride) {
      const auto& call = tl.map_calls[i];
      const auto j = jobs.find(call.job);
      if (j == jobs.end()) continue;
      const Job& job = *j->second;
      // The release the run's mapper plans for (RtdsNode::run_mapper), with
      // the whole sphere's eccentricity standing in for the ACS's.
      const Time release = std::max(
          job.release, call.at + c.cfg.node.protocol_overhead_factor * 3.0 *
                                     probe.pcs_eccentricity[call.site] +
                           c.cfg.node.protocol_overhead_slack);
      if (time_ge(release, job.deadline)) continue;
      MapperInput in;
      in.dag = &job.dag;
      in.release = release;
      in.deadline = job.deadline;
      in.comm_diameter = probe.pcs_diameter[call.site];
      const auto e = tl.enrolled.find(call.job);
      const std::uint64_t procs = 1 + (e == tl.enrolled.end() ? 0 : e->second);
      Rng rng(call.job);
      for (std::uint64_t p = 0; p < procs; ++p)
        in.surpluses.push_back(rng.uniform(0.2, 1.0));
      std::sort(in.surpluses.begin(), in.surpluses.end(), std::greater<>());
      inputs.push_back(std::move(in));
      ids.push_back(call.job);
    }
    Span s(spans, "replay.mapper");
    for (std::size_t i = 0; i < inputs.size(); ++i)
      if (const auto m = build_trial_mapping(inputs[i], c.cfg.node.mapper))
        used.emplace_back(ids[i], m->used_processors);
    t.mapper_s += s.close();
    t.mapper_calls += inputs.size();
  }

  // Hopcroft–Karp on |U| x |ACS| graphs of the sampled rounds.
  {
    std::vector<BipartiteGraph> graphs;
    for (const auto& [job, u] : used) {
      const auto v = tl.validate_acs.find(job);
      if (v == tl.validate_acs.end() || u == 0) continue;
      BipartiteGraph g(u, v->second);
      Rng rng(job ^ 0x9e3779b97f4a7c15ULL);
      for (std::size_t r = 0; r < v->second; ++r)
        for (std::uint32_t x = 0; x < u; ++x)
          if (rng.bernoulli(kEndorseProbability)) g.add_edge(x, r);
      graphs.push_back(std::move(g));
    }
    Span s(spans, "replay.matching");
    for (const auto& g : graphs) t.matched += max_matching_hopcroft_karp(g).size;
    t.hk_s += s.close();
    t.hk_calls += graphs.size();
    t.matchings += tl.matchings;
  }

  // admit_edf: the workload's arrivals against their site's growing plan.
  {
    Span s(spans, "replay.admit_edf");
    std::vector<SchedulingPlan> plans(n);
    std::vector<WindowedTask> tasks;
    const std::size_t count = std::min(arrivals.size(), kMaxAdmitSamples);
    for (std::size_t i = 0; i < count; ++i) {
      const JobArrival& a = arrivals[i];
      const Job& job = *a.job;
      SchedulingPlan& plan = plans[a.site];
      plan.garbage_collect(job.release);
      tasks.clear();
      for (TaskId k = 0; k < job.dag.task_count(); ++k)
        tasks.push_back({k, job.release, job.deadline, job.dag.cost(k)});
      const auto t0 = Clock::now();
      const auto placed = admit_edf(plan, tasks);
      t.admit_s += seconds_since(t0);
      if (placed)
        for (const Placement& p : *placed)
          plan.reserve(Reservation{job.id, p.task, p.start, p.end});
    }
    t.admit_calls += count;
  }

  // Arrival source: timed in-run for open cases; closed cases pull the
  // same arrivals through a trace source.
  if (c.stream) {
    t.arrival_s += probe.arrival_s;
    t.inrun_arrival_s += probe.arrival_s;
    t.pulls += probe.arrival_pulls;
  } else {
    load::ArrivalSpec spec;
    spec.kind = load::ArrivalKind::kTrace;
    spec.site_count = n;
    spec.trace = c.arrivals;
    const auto source = load::make_arrival_source(spec);
    Span s(spans, "replay.arrival_source");
    std::uint64_t pulls = 0;
    while (source->next().has_value()) ++pulls;
    t.arrival_s += s.close();
    t.pulls += pulls;
  }
  t.collector_s += probe.collector_s;
  t.collector_calls += probe.collector_calls;
}

double per(double total, std::uint64_t count, double scale) {
  return count == 0 ? 0.0 : total / static_cast<double>(count) * scale;
}

}  // namespace

LayerResult measure_layers(const Workload& w, const std::string& expect_digest,
                           const std::string& spans_path, std::ostream& log) {
  LayerResult out;
  SpanLog spans;
  Totals t;

  // 1. Untraced pass, after a warm-up run of each case (the process's
  // first run pays page faults the traced run would not).
  std::vector<std::string> untraced;
  std::vector<std::uint64_t> arrived;
  {
    Span pass(spans, "untraced_pass");
    for (const RtdsCase& c : w.cases) {
      {
        Span s(spans, "warm_up");
        run_case(c);
      }
      Span s(spans, "run");
      const CaseResult r = run_case(c);
      t.untraced_wall_s += r.wall_s;
      out.attempted += r.metrics.arrived;
      out.failed += undecided(r.metrics);
      arrived.push_back(r.metrics.arrived);
      untraced.push_back(r.jsonl);
    }
  }

  // 2. Traced pass and the replays of each traced case.
  double sys_repair_ms = 0.0;
  obs::Profiler::instance().reset();  // its table is process-wide
  {
    Span pass(spans, "traced_pass");
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      const RtdsCase& c = w.cases[i];
      obs::MetricsBuffer counts;
      obs::TraceRecorder rec;
      Probe probe;
      CaseResult r;
      {
        Span s(spans, "run");
        obs::Profiler::set_enabled(true);
        const obs::Scope scope(&counts, &rec);
        r = run_case(c, &probe);
        obs::Profiler::set_enabled(false);
      }
      if (r.jsonl != untraced[i]) {
        out.failures.push_back("case " + std::to_string(i) +
                               ": the traced run changed the RunMetrics");
        out.failed += r.metrics.arrived;
      }
      t.traced_wall_s += r.wall_s;
      t.events += r.events;
      // The full step_events chunks: not start, nor the last step + finish.
      for (std::size_t k = 1; k + 1 < r.segments_s.size(); ++k)
        t.chunk_ms.push_back(r.segments_s[k] * 1e3);
      t.counts.merge(counts);
      t.windows.insert(t.windows.end(), r.windows.begin(), r.windows.end());
      Span s(spans, "replays");
      replay_case(c, r, rec, probe, spans, t, out.failures);
    }
    sys_repair_ms = profiler_total_ms("sys.repair");
  }

  // 3. Each family's own entry point. The rtds one doubles as the
  // correctness gate: Policy::run / load::run_open_rtds must print the
  // same RunMetrics as the benchmark's own run. The untraced runs' JSONL
  // followed by the baselines' is what --trace 0 digests.
  std::string all_jsonl;
  for (const std::string& s : untraced) all_jsonl += s;
  {
    Span pass(spans, "families");
    for (std::size_t i = 0; i < w.cases.size(); ++i) {
      Span s(spans, "family.rtds");
      const std::string ref = run_reference(w.cases[i]);
      t.family_s["rtds"] += s.close();
      if (ref != untraced[i]) {
        out.failures.push_back("case " + std::to_string(i) +
                               ": benchmark run and rtds entry point disagree");
        out.failed += arrived[i];
      }
    }
    if (!w.baselines.empty()) {
      for (const BaselineCase& b : w.baselines) {
        Span s(spans, "family." + b.family);
        const RunMetrics m = run_baseline(w, b);
        t.family_s[b.family] += s.close();
        out.attempted += m.arrived;
        out.failed += undecided(m);
        std::ostringstream os;
        m.to_jsonl(os);
        all_jsonl += os.str();
      }
    } else {
      // Workloads without comparison runs time each family's fixed cost:
      // Policy::run on the workload's topology with no jobs.
      for (const auto& f : baseline_families())
        for (const RtdsCase& c : w.cases) {
          Span s(spans, "family." + f);
          run_family(f, c.topo, {});
          t.family_s[f] += s.close();
        }
    }
  }
  if (!expect_digest.empty() && jsonl_digest(all_jsonl) != expect_digest) {
    out.failures.push_back("RunMetrics digest " + jsonl_digest(all_jsonl) +
                           " differs from the recorded " + expect_digest);
    out.failed = out.attempted;
  }

  // Layer metrics.
  const obs::MetricsBuffer& m = t.counts;
  const double rounds = static_cast<double>(m.sum("protocol.rounds"));
  const double remote = static_cast<double>(m.sum("jobs.accepted_remote"));
  const double edf_calls = static_cast<double>(m.sum("admit.edf.calls"));
  const double edf_reject = static_cast<double>(m.sum("admit.edf.reject"));
  const double dirty =
      static_cast<double>(m.sum("apsp.repair.dirty_destinations"));
  const double updates = static_cast<double>(m.sum("apsp.repair.line_updates"));
  const double mapper_us = per(t.mapper_s, t.mapper_calls, 1e6);
  const double admit_us = per(t.admit_s, t.admit_calls, 1e6);
  const double hk_us = per(t.hk_s, t.hk_calls, 1e6);
  const double queue_ns = per(t.queue_s, t.queue_events, 1e9);
  const double transport_ns = per(t.transport_s, t.sends, 1e9);
  const double arrival_ns = per(t.arrival_s, t.pulls, 1e9);
  const double collector_ns = per(t.collector_s, t.collector_calls, 1e9);
  Samples chunks;
  for (const double x : t.chunk_ms) chunks.add(x);

  // Reconciliation: the in-run time the layer numbers account for.
  struct Part {
    const char* name;
    double seconds;
  };
  const std::vector<Part> parts = {
      {"event queue", queue_ns * 1e-9 * static_cast<double>(t.events)},
      {"transport", transport_ns * 1e-9 * static_cast<double>(t.sends)},
      {"routing repair", t.repair_s},
      {"invariant checker", t.check_s},
      {"mapper (est)", mapper_us * 1e-6 * rounds},
      {"admit_edf (est)", admit_us * 1e-6 * edf_calls},
      {"hopcroft-karp (est)", hk_us * 1e-6 * static_cast<double>(t.matchings)},
      {"arrival source", t.inrun_arrival_s},
      {"collector hooks", t.collector_s},
  };
  double attributed = 0.0;
  for (const Part& p : parts) attributed += p.seconds;
  const double unattributed =
      t.traced_wall_s > 0.0 ? 1.0 - attributed / t.traced_wall_s : 0.0;
  const double overhead =
      t.untraced_wall_s > 0.0 ? t.traced_wall_s / t.untraced_wall_s : 0.0;

  log << "reconciliation (" << w.name << ", traced pass):\n";
  for (const Part& p : parts) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-22s %10.3f ms  %6.1f%%\n", p.name,
                  p.seconds * 1e3,
                  t.traced_wall_s > 0.0 ? 100.0 * p.seconds / t.traced_wall_s
                                        : 0.0);
    log << line;
  }
  char line[256];
  std::snprintf(line, sizeof line,
                "  attributed %.3f ms of traced wall %.3f ms; unattributed "
                "share %.3f (node handlers and dispatch)\n"
                "  obs.trace_overhead %.3f (traced %.3f ms / untraced %.3f ms)\n",
                attributed * 1e3, t.traced_wall_s * 1e3, unattributed,
                overhead, t.traced_wall_s * 1e3, t.untraced_wall_s * 1e3);
  log << line;
  const double replay_repair_ms = (t.repair_s + t.check_s) * 1e3;
  if (sys_repair_ms >= kRepairReconcileMinMs) {
    const double gap = std::abs(replay_repair_ms - sys_repair_ms) / sys_repair_ms;
    std::snprintf(line, sizeof line,
                  "  repair: replay %.3f ms (repair %.3f + check %.3f) vs "
                  "profiler sys.repair %.3f ms: gap %.1f%% (tolerance %.0f%%) "
                  "%s\n",
                  replay_repair_ms, t.repair_s * 1e3, t.check_s * 1e3,
                  sys_repair_ms, 100.0 * gap, 100.0 * kRepairTolerance,
                  gap <= kRepairTolerance ? "ok" : "FAIL");
    log << line;
    if (gap > kRepairTolerance)
      out.failures.push_back("replayed repair does not reconcile with "
                             "sys.repair");
  } else {
    std::snprintf(line, sizeof line,
                  "  repair: replay %.3f ms, profiler sys.repair %.3f ms "
                  "(below %.0f ms, not reconciled)\n",
                  replay_repair_ms, sys_repair_ms, kRepairReconcileMinMs);
    log << line;
  }
  spans.print_self_times(log);
  if (!spans_path.empty()) {
    std::ofstream file(spans_path);
    if (file)
      spans.write_jsonl(file);
    else
      log << "cannot write spans to " << spans_path << "\n";
  }

  auto count = [&m](const char* name) {
    return static_cast<double>(m.sum(name));
  };
  out.metrics = {
      {"routing.apsp_build_ms", t.apsp_s * 1e3, "ms"},
      {"routing.pcs_build_ms", t.pcs_s * 1e3, "ms"},
      {"core.bring_up_ms", (t.ctor_s - t.apsp_s - t.pcs_s) * 1e3, "ms"},
      {"sim.events", static_cast<double>(t.events), "count"},
      {"sim.queue_ns_per_event", queue_ns, "ns"},
      {"net.sends", count("net.sends"), "count"},
      {"net.link_msgs", count("net.link_messages"), "count"},
      {"net.dropped", count("net.dropped"), "count"},
      {"net.duplicated", count("net.duplicated"), "count"},
      {"routing.transport_ns_per_send", transport_ns, "ns"},
      {"apsp.repair.calls", count("apsp.repair.calls"), "count"},
      {"apsp.repair.dirty_destinations", dirty, "count"},
      {"apsp.repair.line_updates", updates, "count"},
      {"apsp.repair.useful_ratio", dirty > 0.0 ? updates / dirty : 0.0,
       "ratio"},
      {"routing.repair_ms", t.repair_s * 1e3, "ms"},
      {"fault.check_repair_ms", t.check_s * 1e3, "ms"},
      {"protocol.rounds", rounds, "count"},
      {"protocol.enroll.timeouts", count("protocol.enroll.timeouts"), "count"},
      {"protocol.validate.timeouts", count("protocol.validate.timeouts"),
       "count"},
      {"protocol.retransmits", count("protocol.retransmits"), "count"},
      {"protocol.dedup_dropped", count("protocol.dedup_dropped"), "count"},
      {"jobs.accepted_local", count("jobs.accepted_local"), "count"},
      {"jobs.accepted_remote", remote, "count"},
      {"jobs.rejected", count("jobs.rejected"), "count"},
      {"jobs.shed", count("jobs.shed"), "count"},
      {"protocol.round_yield", rounds > 0.0 ? remote / rounds : 0.0, "ratio"},
      {"core.mapper_us", mapper_us, "us"},
      {"core.mapper_est_ms", mapper_us * rounds / 1e3, "ms"},
      {"admit.edf.calls", edf_calls, "count"},
      {"admit.edf.reject", edf_reject, "count"},
      {"admit.edf.accept_ratio",
       edf_calls > 0.0 ? 1.0 - edf_reject / edf_calls : 0.0, "ratio"},
      {"sched.admit_edf_us", admit_us, "us"},
      {"sched.admit_est_ms", admit_us * edf_calls / 1e3, "ms"},
      {"matching.hk_us", hk_us, "us"},
      {"matching.hk_est_ms", hk_us * static_cast<double>(t.matchings) / 1e3,
       "ms"},
      {"load.arrival_next_ns", arrival_ns, "ns"},
      {"load.collector_ns", collector_ns, "ns"},
      {"load.sojourn_p99", sojourn_p99(t.windows), "simtime"},
      {"baseline.local_s", t.family_s["local"], "s"},
      {"baseline.bid_s", t.family_s["bid"], "s"},
      {"baseline.random_s", t.family_s["random"], "s"},
      {"baseline.bcast_s", t.family_s["bcast"], "s"},
      {"baseline.central_s", t.family_s["central"], "s"},
      {"core.rtds_s", t.family_s["rtds"], "s"},
      {"run.chunk_ms_p50", chunks.count() ? chunks.p50() : 0.0, "ms"},
      {"run.chunk_ms_p99", chunks.count() ? chunks.p99() : 0.0, "ms"},
      {"run.unattributed_share", unattributed, "ratio"},
      {"obs.trace_overhead", overhead, "ratio"},
  };
  log << "chunks: " << chunks.count() << " of " << kChunkEvents
      << " events; hopcroft-karp: " << t.hk_calls
      << " sampled graphs, matched " << t.matched << " logical processors\n";
  return out;
}

}  // namespace rtds::perfbench
