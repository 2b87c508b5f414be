// Append-only record log: the one framing and durability discipline behind
// the scan checkpoint (BGCDCKP1), the intake arrival journal (BGCDARJ1) and
// the batch-tree journal (BGCDBTR1). docs/RECORD_LOG.md describes the rules;
// each journal is a schema on top — its identity fields, record kinds, order
// invariants and replay state — and owns none of the file handling below.
//
//   file   = header record*
//   header = 8-byte magic, then the schema's identity fields
//   record = the schema's bytes (first byte: record kind by convention)
//
// All integers are little-endian. A log opens in one of four ways:
//   - absent or empty, or shorter than the header and a prefix of the magic
//     (a crash tore the header while creating it): written fresh;
//   - another magic, or too short and not a prefix of it: somebody else's
//     file — refused, never overwritten (unless the caller asked to replace
//     mismatched logs);
//   - the right magic but identity fields for another input: refused the
//     same way;
//   - a match: every whole record is parsed, the first record that does not
//     parse (a torn write, a damaged length field, a record out of order)
//     and everything after it is truncated, and appends continue there.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class HistogramMetric;
class TraceRecorder;
}  // namespace bulkgcd::obs

namespace bulkgcd::core {

/// Little-endian record writer. Serialise a record with one of these
/// outside any lock, then hand bytes() to RecordLog::append.
class RecordWriter {
 public:
  /// `prefix` starts the record verbatim (a log header's magic).
  explicit RecordWriter(std::string_view prefix = {}) : out_(prefix) {}

  void u8(std::uint8_t v) { put(v, 1); }
  void u32(std::uint32_t v) { put(v, 4); }
  void u64(std::uint64_t v) { put(v, 8); }
  /// u32 length + raw bytes.
  void str(std::string_view s);
  /// u32 limb count + 32-bit limbs, least significant first (scan and batch
  /// journals): the same bytes whatever width of limbs holds n (BigInt or
  /// BigInt64), written straight from those limbs.
  template <mp::LimbType Limb>
  void bigint_limbs(const mp::BigIntT<Limb>& n);
  /// u32 byte count + exactly (bit_length + 7) / 8 canonical little-endian
  /// bytes (arrival journal; the bytes rsa::modulus_fingerprint hashes).
  void bigint_bytes(const mp::BigInt& n);

  const std::string& bytes() const noexcept { return out_; }

 private:
  void put(std::uint64_t v, int bytes);

  std::string out_;
};

/// Bounds-checked sequential reader over a log's bytes. Every read returns
/// false instead of running past the end, which is how a torn record shows.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes, std::size_t pos = 0) noexcept
      : bytes_(bytes), pos_(pos) {}

  bool u8(std::uint8_t& v) noexcept { return get(v); }
  bool u32(std::uint32_t& v) noexcept { return get(v); }
  bool u64(std::uint64_t& v) noexcept { return get(v); }
  /// An element count (u32 or u64 on disk) for elements of at least
  /// `min_size` encoded bytes each. A count the bytes left could not hold is
  /// refused before anything is allocated for it: a damaged or torn length
  /// field must read as a torn record, never as a huge allocation.
  bool count32(std::uint64_t& n, std::size_t min_size) noexcept;
  bool count64(std::uint64_t& n, std::size_t min_size) noexcept;
  bool str(std::string& s);
  template <mp::LimbType Limb>
  bool bigint_limbs(mp::BigIntT<Limb>& n);
  bool bigint_bytes(mp::BigInt& n);

  std::size_t pos() const noexcept { return pos_; }
  bool done() const noexcept { return pos_ >= bytes_.size(); }

 private:
  template <typename T>
  bool get(T& v) noexcept {
    if (bytes_.size() - pos_ < sizeof(T)) return false;
    v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= T(T(std::uint8_t(bytes_[pos_++])) << (8 * i));
    }
    return true;
  }
  bool fits(std::uint64_t n, std::size_t min_size) const noexcept {
    return n <= (bytes_.size() - pos_) / min_size;
  }

  std::string_view bytes_;
  std::size_t pos_;
};

/// How a schema reads its own log back.
struct LogSchema {
  /// Names the file in error messages ("scan checkpoint").
  std::string_view name;
  /// The header of a fresh log: the 8-byte magic, then identity fields.
  std::string header;
  /// Reads an existing log's identity fields (the cursor starts just past
  /// the magic) and returns why they do not fit this run, or "" if they do.
  std::function<std::string(Cursor&)> check_identity;
  /// Parses one record at the cursor into the schema's replay state.
  /// Returns false, leaving the replay state as it was, when the bytes there
  /// are not one whole record that may follow the ones before it: from that
  /// record on the file is a torn tail.
  std::function<bool(Cursor&)> parse_record;
};

/// Open-for-append record log. Thread-safe: appends from several threads
/// never interleave their bytes (each is one locked write).
class RecordLog {
 public:
  /// Opens (creating, recreating, refusing or resuming; see the file
  /// comment) the log at `path`. A refusal throws std::runtime_error, as
  /// does any I/O failure; with `replace_mismatched` a foreign or
  /// mismatched file is overwritten by a fresh log instead. Every
  /// `fsync_every` appends are flushed and fsynced; each flush+fsync is
  /// observed by `fsync_hist` and traced as a `journal_fsync` span on
  /// `trace` when those are given.
  RecordLog(std::filesystem::path path, const LogSchema& schema,
            std::size_t fsync_every = 1,
            obs::HistogramMetric* fsync_hist = nullptr,
            obs::TraceRecorder* trace = nullptr,
            bool replace_mismatched = false);
  /// Flushes and fsyncs records not yet synced.
  ~RecordLog();

  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// Length of the prefix kept at open: the header plus every whole record.
  std::size_t good_offset() const noexcept { return good_offset_; }

  /// Appends one record; `durable` syncs it now whatever the cadence.
  void append(std::string_view record, bool durable = false);
  /// Flushes and fsyncs everything appended so far.
  void sync();

 private:
  void create(const std::string& header);
  void write_locked(std::string_view bytes);
  void sync_locked();
  [[noreturn]] void fail(std::string_view what) const;

  std::filesystem::path path_;
  std::string name_;
  std::size_t fsync_every_;
  obs::HistogramMetric* fsync_hist_;
  obs::TraceRecorder* trace_;
  std::uint32_t fsync_trace_id_ = 0;
  std::size_t good_offset_ = 0;
  struct FileCloser {
    void operator()(std::FILE* f) const noexcept { std::fclose(f); }
  };
  std::mutex mutex_;  // guards file_ and unsynced_
  std::unique_ptr<std::FILE, FileCloser> file_;
  std::size_t unsynced_ = 0;
};

}  // namespace bulkgcd::core
