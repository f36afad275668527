// Binary container format for snapshots and journals (DESIGN.md §14).
//
// A file is a fixed header followed by named sections:
//
//   header:   magic "RTDSNAP\0" (8 bytes)
//             u32 format version
//             u64 config hash (what the payload is only valid against)
//   section:  u8  name length (> 0; 0 is the end-of-file marker)
//             name bytes
//             u64 body length
//             u64 checksum of the body (word-folded FNV-1a)
//             body bytes
//
// Everything is little-endian fixed-width; doubles travel as their IEEE-754
// bit pattern, so a round trip is bit-exact by construction. Every decode
// failure — wrong magic, version skew, config-hash mismatch, a checksum
// that does not match, or a read past a section body — throws
// ContractViolation naming the section and the absolute byte offset, so a
// corrupt file says *where* it broke instead of crashing downstream.
//
// Writers buffer in memory and publish with an atomic rename (write_file),
// so a crash mid-save can never leave a half-written snapshot under the
// final name. Journals instead append whole sections to an open file and
// tolerate exactly one truncated *tail* section (the artifact of a SIGKILL
// mid-append); a damaged *complete* section is still a hard error.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/error.hpp"

namespace rtds::snap {

inline constexpr char kMagic[8] = {'R', 'T', 'D', 'S', 'N', 'A', 'P', '\0'};
// v2: InvariantChecker section grew the seq-monotone map and shed-queue
// accounting counters (PR 10) — old snapshots are rejected, not misread.
inline constexpr std::uint32_t kFormatVersion = 2;

/// The element types with a bulk array form: u32, u64 and f64.
template <class T>
inline constexpr bool kBulk = std::is_same_v<T, std::uint32_t> ||
                              std::is_same_v<T, std::uint64_t> ||
                              std::is_same_v<T, double>;

/// FNV-1a 64-bit over a byte range (the building block for config hashes).
std::uint64_t fnv1a(const void* data, std::size_t size,
                    std::uint64_t seed = 14695981039346656037ull);

/// The per-section checksum: FNV-1a folded 8 little-endian bytes per
/// multiply instead of 1. Byte-wise FNV is a serial ~1 byte/cycle chain,
/// which made checksum verification the dominant cost of opening large
/// sections (warm-start entries, full snapshots); word folding keeps the
/// single-bit-flip guarantee (xor-then-multiply-by-odd is injective per
/// step) at ~8x the throughput.
std::uint64_t section_checksum(const void* data, std::size_t size);

/// Incremental config-hash helper: absorb typed values into an FNV state.
class HashAbsorber {
 public:
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

class Writer {
 public:
  Writer(std::uint32_t version, std::uint64_t config_hash);

  void begin_section(std::string_view name);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void b(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(const void* data, std::size_t size);

  /// Bulk fixed-width write: identical bytes to calling the scalar form
  /// in a loop, one append on little-endian hosts. The decode side of
  /// these is where warm-start hits and snapshot loads spend their time.
  template <class T>
    requires kBulk<T>
  void array(const T* v, std::size_t n);

  /// The finished container (appends the end-of-file marker once).
  const std::string& finish();

  /// finish() + atomic publish: writes to `path`.tmp and renames over
  /// `path`, so readers only ever see complete files.
  void write_file(const std::string& path);

 private:
  std::string out_;
  std::string section_name_;
  std::size_t body_start_ = 0;  ///< offset of the current section body
  bool finished_ = false;
};

/// What try_next_section found at the read cursor.
enum class SectionStatus {
  kOk,         ///< a complete, checksum-verified section
  kEnd,        ///< the end-of-file marker (or clean EOF, journal mode)
  kTruncated,  ///< an incomplete tail section (crash artifact)
};

class Reader {
 public:
  /// Parses and validates the header; throws on wrong magic or a version
  /// newer than this build understands.
  explicit Reader(std::string data, std::string_view what = "snapshot");

  /// Reads the whole file (throws ContractViolation when unreadable).
  static Reader from_file(const std::string& path,
                          std::string_view what = "snapshot");

  std::uint32_t version() const { return version_; }
  std::uint64_t config_hash() const { return config_hash_; }

  /// Requires the configuration hash recorded in the header to equal
  /// `expected` (the caller recomputed it from its own config).
  void require_config_hash(std::uint64_t expected) const;

  /// Opens the next section and requires it to be `name`; verifies the
  /// checksum over the whole body before any field is decoded.
  void expect_section(std::string_view name);

  /// Journal-mode iteration: advances to the next section, verifying its
  /// checksum. kTruncated means the file ends inside the section header or
  /// body — the tail a killed writer leaves — and the cursor stops there.
  SectionStatus try_next_section(std::string& name);

  /// Requires the current section body to be fully consumed.
  void end_section();

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool b() { return u8() != 0; }
  std::string str();

  /// Bulk fixed-width read: one bounds check + one memcpy on
  /// little-endian hosts, equivalent to the scalar form in a loop.
  template <class T>
    requires kBulk<T>
  void array(T* out, std::size_t n);

  /// Bytes left in the current section body.
  std::size_t section_remaining() const { return section_end_ - pos_; }

  /// Throws a ContractViolation naming the current section and offset.
  [[noreturn]] void fail(const std::string& why) const;

 private:
  void need(std::size_t n);  ///< bounds check against the section body
  /// Reads the section header at pos_; returns kTruncated/kEnd without
  /// consuming on a short or final file.
  SectionStatus open_section(std::string& name, bool verify_checksum);

  std::string data_;
  std::string what_;
  std::size_t pos_ = 0;
  std::uint32_t version_ = 0;
  std::uint64_t config_hash_ = 0;
  std::string section_;
  std::size_t section_end_ = 0;
};

}  // namespace rtds::snap
