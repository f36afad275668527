#include "exp/scenario.hpp"

#include "exp/seed.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace rtds::exp {

GridAxis GridAxis::numeric(std::string header, std::string key,
                           const std::vector<double>& values, int precision) {
  GridAxis axis;
  axis.header = std::move(header);
  axis.key = std::move(key);
  for (const double v : values)
    axis.values.push_back(AxisValue{v, Table::num(v, precision)});
  return axis;
}

GridAxis GridAxis::labeled(std::string header, std::string key,
                           std::vector<std::string> labels) {
  GridAxis axis;
  axis.header = std::move(header);
  axis.key = std::move(key);
  for (std::size_t i = 0; i < labels.size(); ++i)
    axis.values.push_back(
        AxisValue{static_cast<double>(i), std::move(labels[i])});
  return axis;
}

std::size_t ScenarioSpec::grid_size() const {
  std::size_t n = 1;
  for (const auto& axis : axes) n *= axis.values.size();
  return n;
}

GridPoint ScenarioSpec::grid_point(std::size_t index) const {
  RTDS_REQUIRE(index < grid_size());
  GridPoint point;
  point.index = index;
  point.coords.resize(axes.size());
  // Row-major, first axis slowest: peel from the last (fastest) axis.
  std::size_t rest = index;
  for (std::size_t a = axes.size(); a-- > 0;) {
    const auto& vals = axes[a].values;
    point.coords[a] = vals[rest % vals.size()];
    rest /= vals.size();
  }
  return point;
}

std::uint64_t ScenarioSpec::seed_for(std::size_t grid_index,
                                     std::size_t replicate) const {
  return seed_mode == SeedMode::kFixed
             ? fixed_seed
             : trial_seed(name, grid_index, replicate);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

void Registry::add(ScenarioSpec spec) {
  RTDS_REQUIRE_MSG(!spec.name.empty(), "scenario needs a name");
  RTDS_REQUIRE_MSG(static_cast<bool>(spec.trial),
                   "scenario " << spec.name << " has no trial function");
  RTDS_REQUIRE_MSG(!spec.metrics.empty(),
                   "scenario " << spec.name << " declares no metrics");
  for (const auto& axis : spec.axes)
    RTDS_REQUIRE_MSG(!axis.values.empty(),
                     "scenario " << spec.name << " axis " << axis.key
                                 << " is empty");
  RTDS_REQUIRE(spec.replicates > 0);
  const auto name = spec.name;
  const bool inserted = scenarios_.emplace(name, std::move(spec)).second;
  RTDS_REQUIRE_MSG(inserted, "duplicate scenario " << name);
}

void Registry::add_report(std::string name, std::string description,
                          ReportFn fn) {
  RTDS_REQUIRE(!name.empty());
  RTDS_REQUIRE(static_cast<bool>(fn));
  const bool inserted =
      reports_
          .emplace(std::move(name),
                   Report{std::move(description), std::move(fn)})
          .second;
  RTDS_REQUIRE_MSG(inserted, "duplicate report scenario");
}

const ScenarioSpec* Registry::find(const std::string& name) const {
  const auto it = scenarios_.find(name);
  return it == scenarios_.end() ? nullptr : &it->second;
}

const ReportFn* Registry::find_report(const std::string& name) const {
  const auto it = reports_.find(name);
  return it == reports_.end() ? nullptr : &it->second.fn;
}

const std::string& Registry::report_description(
    const std::string& name) const {
  const auto it = reports_.find(name);
  RTDS_REQUIRE_MSG(it != reports_.end(), "unknown report " << name);
  return it->second.description;
}

std::vector<std::string> Registry::scenario_names() const {
  std::vector<std::string> names;
  for (const auto& [name, spec] : scenarios_) names.push_back(name);
  return names;
}

std::vector<std::string> Registry::report_names() const {
  std::vector<std::string> names;
  for (const auto& [name, report] : reports_) names.push_back(name);
  return names;
}

void run_report(const std::string& name, std::ostream& os,
                const RunContext& ctx) {
  const ReportFn* fn = Registry::instance().find_report(name);
  RTDS_REQUIRE_MSG(fn != nullptr, "unknown report scenario " << name);
  (*fn)(os, ctx);
}

}  // namespace rtds::exp
