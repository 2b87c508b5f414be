// Durable level journal for the resumable batch-GCD driver — the element
// that lets a million-moduli product/remainder tree survive a SIGKILL at any
// level (docs/BATCHGCD.md).
//
// A schema over core::RecordLog (docs/RECORD_LOG.md), which owns the
// framing, torn-tail recovery and fsync cadence. The header binds the
// journal to one corpus identity (rsa::corpus_digest + count). Three record
// kinds, one per completed tree level:
//
//   product(level, nodes)    — product-tree level `level` (1 = first pairing
//                              of the moduli; the leaves are never journaled,
//                              they ARE the corpus the header binds to).
//   remainder(level, nodes)  — the residues after the descent has reduced
//                              into tree level `level` (level L−2 first,
//                              level 0 last: the leaf residues P mod n_i²).
//   gcds(values)             — the final per-modulus gcd vector; its
//                              presence marks the attack complete.
//
// Values are journaled as canonical 32-bit limbs whatever limb width holds
// them: tree levels are written straight from the tree's 64-bit limbs, the
// gcds from BigInt's 32-bit ones. A checkpoint written by one build resumes
// under any other (mirrors the scan journal's portability rule).
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/record_log.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class HistogramMetric;
}  // namespace bulkgcd::obs

namespace bulkgcd::batchgcd {

/// Everything parsed from an existing journal at open.
struct BatchReplay {
  /// Restored product-tree levels in append order (level index ≥ 1). A valid
  /// journal holds a dense prefix 1..k; the driver re-checks sizes anyway.
  std::vector<std::pair<std::uint32_t, std::vector<mp::BigInt64>>>
      product_levels;
  /// Deepest (lowest-level) restored remainder vector — the descent resumes
  /// from here. Records are appended top-down, so the last one parsed wins.
  std::optional<std::pair<std::uint32_t, std::vector<mp::BigInt64>>> remainder;
  /// Final gcd vector, present only when the attack finished.
  std::optional<std::vector<mp::BigInt>> gcds;
  /// File prefix that parsed cleanly; bytes past it (torn tail) were
  /// truncated before the journal reopened for append.
  std::size_t good_offset = 0;
};

/// Open-for-append batch-tree journal bound to one corpus identity.
/// Single-writer: the level-serial driver appends from one thread.
class BatchJournal {
 public:
  /// Opens `path`, creating it with a fresh header when absent or empty.
  /// An existing journal must carry the same corpus identity — digest
  /// (rsa::corpus_digest over the moduli) and count — else this throws
  /// std::runtime_error: resuming someone else's tree would deliver gcds
  /// against the wrong corpus. On a match, all complete records are parsed
  /// (take_replay()), the torn tail is truncated, and the file is positioned
  /// for append. A gcds record with a value that does not divide its
  /// modulus counts as damage and is cut with the tail. `moduli` is read
  /// only while the constructor runs. fsync_hist (optional) receives each
  /// flush+fsync latency.
  BatchJournal(std::filesystem::path path, std::span<const mp::BigInt> moduli,
               std::size_t fsync_every = 1,
               obs::HistogramMetric* fsync_hist = nullptr);

  BatchJournal(const BatchJournal&) = delete;
  BatchJournal& operator=(const BatchJournal&) = delete;

  /// The state parsed at open; meaningful once, immediately after
  /// construction (moves the levels out).
  BatchReplay take_replay();

  /// Journal one completed product-tree level (level ≥ 1).
  void append_product_level(std::uint32_t level,
                            std::span<const mp::BigInt64> nodes);
  /// Journal the residues after the descent reduced into tree `level`.
  void append_remainder_level(std::uint32_t level,
                              std::span<const mp::BigInt64> residues);
  /// Journal the final gcd vector; marks the run complete on replay.
  void append_gcds(std::span<const mp::BigInt> gcds);

  /// Flush + fsync anything buffered (also done by the destructor).
  void flush();

 private:
  BatchReplay replay_;  // filled while log_ opens: declared first
  core::RecordLog log_;
};

}  // namespace bulkgcd::batchgcd
