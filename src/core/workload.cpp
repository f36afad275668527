#include "core/workload.hpp"

#include <algorithm>

#include "dag/analysis.hpp"

namespace rtds {

namespace {

/// Draws the next inter-arrival time for the configured process. For the
/// bursty process, `in_burst`/`phase_left` carry the modulation state.
Time next_interarrival(const WorkloadConfig& cfg, Rng& rng, bool& in_burst,
                       Time& phase_left) {
  if (cfg.arrival_process == ArrivalProcess::kPoisson)
    return rng.exponential(cfg.arrival_rate_per_site);
  // Markov-modulated Poisson: walk phases until an arrival lands in one.
  Time waited = 0.0;
  for (;;) {
    const double rate = in_burst
                            ? cfg.arrival_rate_per_site * cfg.burst_multiplier
                            : cfg.arrival_rate_per_site /
                                  (1.0 + cfg.burst_multiplier);
    const Time gap = rng.exponential(rate);
    if (gap <= phase_left) {
      phase_left -= gap;
      return waited + gap;
    }
    waited += phase_left;
    in_burst = !in_burst;
    phase_left =
        rng.exponential(1.0 / (in_burst ? cfg.burst_on_mean : cfg.burst_off_mean));
  }
}

}  // namespace

std::vector<JobArrival> generate_workload(std::size_t site_count,
                                          const WorkloadConfig& cfg) {
  RTDS_REQUIRE(site_count >= 1);
  RTDS_REQUIRE(cfg.arrival_rate_per_site > 0.0);
  RTDS_REQUIRE(cfg.horizon > 0.0);
  RTDS_REQUIRE(!cfg.shape_mix.empty());
  RTDS_REQUIRE(cfg.min_tasks >= 1 && cfg.min_tasks <= cfg.max_tasks);
  RTDS_REQUIRE(cfg.laxity_min > 0.0 && cfg.laxity_min <= cfg.laxity_max);
  RTDS_REQUIRE(cfg.data_volume_min >= 0.0);
  RTDS_REQUIRE(cfg.data_volume_min <= cfg.data_volume_max ||
               cfg.data_volume_max == 0.0);
  if (cfg.arrival_process == ArrivalProcess::kBursty) {
    RTDS_REQUIRE(cfg.burst_on_mean > 0.0 && cfg.burst_off_mean > 0.0);
    RTDS_REQUIRE(cfg.burst_multiplier >= 1.0);
  }

  Rng rng(cfg.seed);
  std::vector<JobArrival> arrivals;
  JobId next_id = 1;
  for (SiteId site = 0; site < site_count; ++site) {
    Rng site_rng = rng.split();
    Time t = 0.0;
    bool in_burst = false;
    Time phase_left = site_rng.exponential(1.0 / cfg.burst_off_mean);
    for (;;) {
      t += next_interarrival(cfg, site_rng, in_burst, phase_left);
      if (t >= cfg.horizon) break;
      const auto shape = cfg.shape_mix[static_cast<std::size_t>(
          site_rng.uniform_int(0,
                               static_cast<std::int64_t>(cfg.shape_mix.size()) - 1))];
      const auto tasks = static_cast<std::size_t>(site_rng.uniform_int(
          static_cast<std::int64_t>(cfg.min_tasks),
          static_cast<std::int64_t>(cfg.max_tasks)));
      auto job = std::make_shared<Job>();
      job->id = next_id++;
      job->dag = make_shape(shape, tasks, cfg.costs, site_rng);
      if (cfg.data_volume_max > 0.0)
        job->dag = decorate_volumes(std::move(job->dag), cfg.data_volume_min,
                                    cfg.data_volume_max, site_rng);
      job->release = t;
      const double laxity = site_rng.uniform(cfg.laxity_min, cfg.laxity_max);
      const Time base = cfg.deadline_model == DeadlineModel::kCriticalPath
                            ? critical_path_length(job->dag)
                            : job->dag.total_work();
      job->deadline = t + laxity * base;
      arrivals.push_back(JobArrival{site, std::move(job)});
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const JobArrival& a, const JobArrival& b) {
              if (a.job->release != b.job->release)
                return a.job->release < b.job->release;
              return a.job->id < b.job->id;
            });
  return arrivals;
}

}  // namespace rtds
