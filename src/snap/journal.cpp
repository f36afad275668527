#include "snap/journal.hpp"

#include <utility>

#include "snap/access.hpp"
#include "snap/io.hpp"

namespace rtds::snap {

namespace {

// The fixed container header a Writer emits before its first section:
// magic (8) + u32 version (4) + u64 config hash (8). encode_section builds
// one section by round-tripping a throwaway Writer and stripping this
// header plus the 1-byte end-of-file marker, so the journal's section
// bytes come from the exact same encoder as the snapshots'.
constexpr std::size_t kHeaderSize = 8 + 4 + 8;

std::string header_bytes(std::uint64_t sweep_hash) {
  Writer w(kFormatVersion, sweep_hash);
  std::string all = w.finish();
  RTDS_CHECK_MSG(all.size() == kHeaderSize + 1,
                 "snapshot container header changed size — update "
                 "snap/journal.cpp");
  all.resize(kHeaderSize);  // drop the end-of-file marker
  return all;
}

/// One "trial" section body: trial index, metric values, and the trial's
/// obs buffer behind a presence flag.
template <class Ar>
void trial_io(Ar& ar, Ref<Ar, std::uint64_t> trial,
              Ref<Ar, std::vector<double>> values, Ref<Ar, bool> has_metrics,
              std::remove_reference_t<Ref<Ar, obs::MetricsBuffer>>* metrics) {
  fields(ar, trial, values, has_metrics);
  if (has_metrics) field(ar, *metrics);
}

std::string encode_section(std::uint64_t sweep_hash, std::uint64_t trial,
                           const std::vector<double>& values,
                           const obs::MetricsBuffer* metrics) {
  Writer w(kFormatVersion, sweep_hash);
  w.begin_section("trial");
  trial_io(w, trial, values, metrics != nullptr, metrics);
  w.end_section();
  const std::string& all = w.finish();
  return all.substr(kHeaderSize, all.size() - kHeaderSize - 1);
}

}  // namespace

std::unique_ptr<SweepJournal> SweepJournal::create(const std::string& path,
                                                  std::uint64_t sweep_hash) {
  auto j = std::unique_ptr<SweepJournal>(new SweepJournal());
  j->path_ = path;
  j->sweep_hash_ = sweep_hash;
  j->out_.open(path, std::ios::binary | std::ios::trunc);
  RTDS_REQUIRE_MSG(j->out_.good(),
                   "cannot open sweep journal for writing: " << path);
  const std::string header = header_bytes(sweep_hash);
  j->out_.write(header.data(), static_cast<std::streamsize>(header.size()));
  j->out_.flush();
  RTDS_REQUIRE_MSG(j->out_.good(), "sweep journal write failed: " << path);
  return j;
}

std::unique_ptr<SweepJournal> SweepJournal::resume(
    const std::string& path, std::uint64_t sweep_hash,
    std::vector<JournalEntry>& entries) {
  Reader r = Reader::from_file(path, "sweep journal");
  r.require_config_hash(sweep_hash);
  entries.clear();
  std::string name;
  for (;;) {
    const SectionStatus status = r.try_next_section(name);
    // A truncated tail is the normal SIGKILL artifact: the trials it held
    // were mid-append and simply re-run.
    if (status != SectionStatus::kOk) break;
    if (name != "trial") r.fail("unexpected journal section \"" + name + "\"");
    JournalEntry e;
    trial_io(r, e.trial, e.values, e.has_metrics, &e.metrics);
    r.end_section();
    entries.push_back(std::move(e));
  }
  // Compact: rewrite the valid prefix (dropping any truncated tail) so the
  // append cursor starts on a section boundary.
  auto j = create(path, sweep_hash);
  for (const JournalEntry& e : entries)
    j->append(e.trial, e.values, e.has_metrics ? &e.metrics : nullptr);
  return j;
}

void SweepJournal::append(std::uint64_t trial,
                          const std::vector<double>& values,
                          const obs::MetricsBuffer* metrics) {
  const std::string section = encode_section(sweep_hash_, trial, values, metrics);
  const std::lock_guard<std::mutex> lock(mutex_);
  out_.write(section.data(), static_cast<std::streamsize>(section.size()));
  out_.flush();
  RTDS_REQUIRE_MSG(out_.good(), "sweep journal write failed: " << path_);
}

}  // namespace rtds::snap
