// Sphere tuning: how to pick the radius h for a deployment.
//
// Runs the same sporadic workload at several radii and prints the
// acceptance / message / latency trade-off plus a recommendation (the
// smallest h within 2% of the best ratio). Mirrors the E3 sweep
// (`rtds_exp --scenario=e3_sphere_radius`) but as a user-facing tool with
// flags.
//
// Usage:
//   sphere_tuning [--sites=64] [--net=geometric] [--rate=0.02]
//                 [--laxity-min=1.2] [--laxity-max=1.8] [--hmax=5]
//                 [--delay-min=0.1] [--delay-max=0.4] [--seed=42]
#include <iostream>

#include "core/rtds_system.hpp"
#include "net/generators.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

using namespace rtds;

namespace {

NetShape parse_net(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(NetShape::kScaleFree); ++i)
    if (name == to_string(static_cast<NetShape>(i)))
      return static_cast<NetShape>(i);
  RTDS_REQUIRE_MSG(false, "unknown --net=" << name);
  return NetShape::kGrid;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto sites = static_cast<std::size_t>(flags.get_int("sites", 64));
  const auto net_name = flags.get_string("net", "geometric");
  const double rate = flags.get_double("rate", 0.02);
  const double laxity_min = flags.get_double("laxity-min", 1.2);
  const double laxity_max = flags.get_double("laxity-max", 1.8);
  const auto hmax = static_cast<std::size_t>(flags.get_int("hmax", 5));
  const double delay_min = flags.get_double("delay-min", 0.1);
  const double delay_max = flags.get_double("delay-max", 0.4);
  const auto seed = flags.get_seed("seed", 42);
  flags.check_unused();

  Rng rng(seed);
  const Topology topo = make_net(parse_net(net_name), sites,
                                 DelayRange{delay_min, delay_max}, rng);
  WorkloadConfig wl;
  wl.arrival_rate_per_site = rate;
  wl.horizon = 800.0;
  wl.laxity_min = laxity_min;
  wl.laxity_max = laxity_max;
  wl.seed = seed;
  const auto arrivals = generate_workload(topo.site_count(), wl);

  std::cout << "tuning h on " << net_name << " (" << topo.site_count()
            << " sites), " << arrivals.size() << " jobs\n\n";

  Table table({"h", "ratio%", "msgs/job", "latency", "PCS max", "one-time "
               "PCS msgs"});
  std::vector<double> ratios;
  for (std::size_t h = 0; h <= hmax; ++h) {
    SystemConfig cfg;
    cfg.node.sphere_radius_h = h;
    cfg.measure_pcs_build_cost = h > 0;
    RtdsSystem system(topo, cfg);
    system.run(arrivals);
    const auto& m = system.metrics();
    std::size_t max_pcs = 0;
    for (SiteId s = 0; s < topo.site_count(); ++s)
      max_pcs = std::max(max_pcs, system.node(s).pcs().size());
    ratios.push_back(m.guarantee_ratio());
    table.add_row(
        {Table::num(h), Table::num(100.0 * m.guarantee_ratio(), 1),
         Table::num(m.msgs_per_job.count() ? m.msgs_per_job.mean() : 0.0, 1),
         Table::num(m.decision_latency.mean(), 2), Table::num(max_pcs),
         Table::num(std::size_t{m.pcs_build_messages})});
  }
  table.print(std::cout);

  double best = 0.0;
  for (double r : ratios) best = std::max(best, r);
  std::size_t pick = 0;
  while (pick < ratios.size() && ratios[pick] < best - 0.02) ++pick;
  std::cout << "\nrecommendation: h = " << pick << " (smallest radius within "
            << "2% of the best ratio " << 100.0 * best << "%)\n";
  return 0;
}
