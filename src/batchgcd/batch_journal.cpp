#include "batchgcd/batch_journal.hpp"

#include "rsa/keystore.hpp"

namespace bulkgcd::batchgcd {

namespace {

// ---- journal schema (docs/BATCHGCD.md) ------------------------------------
// Record order invariants:
//   - product levels appear in increasing level order starting at 1, each
//     exactly once;
//   - remainder levels appear in decreasing level order starting at L−2
//     (the descent walks top-down), each exactly once, and only after every
//     product level;
//   - the gcds record, if present, is last, holds one value per modulus,
//     and each value divides its modulus.
// A record breaking these ends the parse like a torn write (RecordLog).

constexpr char kMagic[8] = {'B', 'G', 'C', 'D', 'B', 'T', 'R', '1'};
constexpr std::uint8_t kRecordProduct = 1;
constexpr std::uint8_t kRecordRemainder = 2;
constexpr std::uint8_t kRecordGcds = 3;

/// A level's values: u64 count, then each as 32-bit limbs (count + limbs),
/// the same encoding the scan checkpoint uses for hit factors, so
/// checkpoints stay portable across limb widths: tree levels are encoded
/// straight from their 64-bit limbs, the gcds from 32-bit ones.
template <mp::LimbType Limb>
void put_values(core::RecordWriter& out,
                std::span<const mp::BigIntT<Limb>> values) {
  out.u64(values.size());
  for (const auto& v : values) out.bigint_limbs(v);
}

template <mp::LimbType Limb>
bool get_values(core::Cursor& c, std::vector<mp::BigIntT<Limb>>& values) {
  std::uint64_t count = 0;
  if (!c.count64(count, 4)) return false;  // each value costs ≥ 4 bytes
  values.resize(count);
  for (auto& v : values) {
    if (!c.bigint_limbs(v)) return false;
  }
  return true;
}

bool parse_record(core::Cursor& c, BatchReplay& replay,
                  std::span<const mp::BigInt> moduli) {
  std::uint8_t kind = 0;
  if (!c.u8(kind) || replay.gcds) return false;
  const bool descending = replay.remainder.has_value();
  std::uint32_t level = 0;
  std::vector<mp::BigInt64> values;
  if (kind == kRecordProduct) {
    // Product levels are dense from 1.
    if (descending || !c.u32(level) ||
        level != replay.product_levels.size() + 1 || !get_values(c, values)) {
      return false;
    }
    replay.product_levels.emplace_back(level, std::move(values));
    return true;
  }
  if (kind == kRecordRemainder) {
    if (!c.u32(level) || !get_values(c, values)) return false;
    // Top-down descent: each remainder level is exactly one below the
    // previous record's level.
    if (descending && level + 1 != replay.remainder->first) return false;
    replay.remainder.emplace(level, std::move(values));
    return true;
  }
  if (kind == kRecordGcds) {
    // A gcd that does not divide its modulus is damage, never a result:
    // the record ends the parse and the final level is recomputed.
    std::vector<mp::BigInt> gcds;
    if (!get_values(c, gcds) || gcds.size() != moduli.size()) return false;
    for (std::size_t i = 0; i < gcds.size(); ++i) {
      if (!mp::divides(gcds[i], moduli[i])) return false;
    }
    replay.gcds = std::move(gcds);
    return true;
  }
  return false;  // unknown record kind
}

core::LogSchema batch_schema(std::span<const mp::BigInt> moduli,
                             BatchReplay& replay) {
  const std::uint64_t corpus_digest = rsa::corpus_digest(moduli);
  const std::uint64_t corpus_count = moduli.size();
  core::RecordWriter header({kMagic, sizeof(kMagic)});
  header.u64(corpus_digest);
  header.u64(corpus_count);
  return {
      .name = "batch journal",
      .header = header.bytes(),
      .check_identity =
          [=](core::Cursor& c) -> std::string {
            std::uint64_t digest = 0, count = 0;
            c.u64(digest);
            c.u64(count);
            // A tree built over different moduli delivers gcds against the
            // wrong corpus.
            if (digest != corpus_digest || count != corpus_count) {
              return "written for a different corpus (digest/count mismatch)";
            }
            return {};
          },
      .parse_record =
          [&replay, moduli](core::Cursor& c) {
            return parse_record(c, replay, moduli);
          },
  };
}

core::RecordWriter level_record(std::uint8_t kind, std::uint32_t level,
                                std::span<const mp::BigInt64> values) {
  core::RecordWriter out;
  out.u8(kind);
  out.u32(level);
  put_values(out, values);
  return out;
}

}  // namespace

BatchJournal::BatchJournal(std::filesystem::path path,
                           std::span<const mp::BigInt> moduli,
                           std::size_t fsync_every,
                           obs::HistogramMetric* fsync_hist)
    : log_(std::move(path), batch_schema(moduli, replay_), fsync_every,
           fsync_hist) {
  replay_.good_offset = log_.good_offset();
}

BatchReplay BatchJournal::take_replay() { return std::move(replay_); }

void BatchJournal::append_product_level(std::uint32_t level,
                                        std::span<const mp::BigInt64> nodes) {
  log_.append(level_record(kRecordProduct, level, nodes).bytes());
}

void BatchJournal::append_remainder_level(
    std::uint32_t level, std::span<const mp::BigInt64> residues) {
  log_.append(level_record(kRecordRemainder, level, residues).bytes());
}

void BatchJournal::append_gcds(std::span<const mp::BigInt> gcds) {
  core::RecordWriter out;
  out.u8(kRecordGcds);
  put_values(out, gcds);
  // The completion record is always made durable.
  log_.append(out.bytes(), /*durable=*/true);
}

void BatchJournal::flush() { log_.sync(); }

}  // namespace bulkgcd::batchgcd
