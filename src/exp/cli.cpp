#include "exp/cli.hpp"

#include <fstream>
#include <iostream>

#include "obs/profile.hpp"
#include "util/error.hpp"

namespace rtds::exp {

RunContext run_context_from(const Flags& flags, bool with_duration) {
  RunContext ctx;
  ctx.check_invariants = flags.get_bool("check-invariants", false);
  ctx.warm_start = flags.get_bool("warm-start", false);
  if (with_duration) ctx.duration = flags.get_double("duration", 0.0);
  return ctx;
}

ObsFlags parse_obs_flags(const Flags& flags) {
  ObsFlags o;
  o.trace_file = flags.get_string("trace", "");
  o.metrics_file = flags.get_string("metrics", "");
  o.profile = flags.get_bool("profile", false);
  if (o.profile) {
    obs::Profiler::set_enabled(true);
    obs::Profiler::instance().reset();
  }
  return o;
}

namespace {

std::ofstream open_output(const std::string& path) {
  std::ofstream file(path);
  RTDS_REQUIRE_MSG(file.good(), "cannot open " << path);
  return file;
}

}  // namespace

void write_metrics_file(const std::string& path,
                        const obs::MetricsBuffer& metrics) {
  std::ofstream file = open_output(path);
  metrics.write_jsonl(file);
}

void write_obs_outputs(const ObsFlags& flags,
                       std::span<const obs::TraceRecorder> traces,
                       const obs::MetricsBuffer& metrics) {
  const std::string& path = flags.trace_file;
  if (!path.empty()) {
    std::ofstream file = open_output(path);
    if (path.size() >= 6 && path.compare(path.size() - 6, 6, ".jsonl") == 0)
      obs::TraceRecorder::write_jsonl(file, traces);
    else
      obs::TraceRecorder::write_chrome(file, traces);
  }
  if (!flags.metrics_file.empty())
    write_metrics_file(flags.metrics_file, metrics);
  if (flags.profile) obs::Profiler::instance().report(std::cerr);
}

void write_output(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::cout << text;
    return;
  }
  open_output(path) << text;
}

}  // namespace rtds::exp
