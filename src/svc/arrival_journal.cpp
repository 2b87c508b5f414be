#include "svc/arrival_journal.hpp"

#include <string>
#include <utility>

#include "rsa/keystore.hpp"
#include "svc/intake_parser.hpp"

namespace bulkgcd::svc {

namespace {

// ---- journal schema (docs/INTAKE_SERVICE.md) ------------------------------
// Record order invariants:
//   - arrival seqs are dense and file-ordered (the admission gate assigns
//     and journals them under one lock);
//   - a retract record immediately follows its arrival logically (same
//     lock), so it always targets the newest arrival;
//   - probed(seq) appears after arrival(seq) — the worker only sees a key
//     after the gate journaled it;
//   - an arrival value is odd and at least 3;
//   - a probed hit names an earlier corpus member (seed or arrival) and a
//     factor > 1 of both it and the probed key.
// A record breaking these ends the parse like a torn write (RecordLog).

constexpr char kMagic[8] = {'B', 'G', 'C', 'D', 'A', 'R', 'J', '1'};
constexpr std::uint8_t kRecordArrival = 1;
constexpr std::uint8_t kRecordProbed = 2;
constexpr std::uint8_t kRecordRetract = 3;
constexpr std::size_t kMinHitSize = 8 + 4;  // index + empty factor

bool parse_record(core::Cursor& c, std::vector<ReplayedArrival>& arrivals,
                  std::span<const mp::BigInt> seed) {
  std::uint8_t kind = 0;
  std::uint64_t seq = 0;
  if (!c.u8(kind) || !c.u64(seq)) return false;
  if (kind == kRecordArrival) {
    // The gate only ever journals what the probe engines take — values
    // that pass modulus_screen_error — so anything else is a damaged
    // record, never a key to probe.
    ReplayedArrival arrival;
    if (seq != arrivals.size() || !c.bigint_bytes(arrival.value) ||
        !modulus_screen_error(arrival.value).empty()) {
      return false;
    }
    arrivals.push_back(std::move(arrival));
    return true;
  }
  if (kind == kRecordProbed) {
    std::uint64_t nhits = 0;
    if (seq >= arrivals.size() || arrivals[seq].probed ||
        !c.count32(nhits, kMinHitSize)) {
      return false;
    }
    std::vector<std::pair<std::uint64_t, mp::BigInt>> hits(nhits);
    const mp::BigInt& key = arrivals[seq].value;
    for (auto& [i, factor] : hits) {
      if (!c.u64(i) || !c.bigint_bytes(factor) ||
          i >= seed.size() + seq) {
        return false;
      }
      const mp::BigInt& other =
          i < seed.size() ? seed[i] : arrivals[i - seed.size()].value;
      if (!mp::is_shared_factor(factor, other, key)) return false;
    }
    arrivals[seq].probed = true;
    arrivals[seq].hits = std::move(hits);
    return true;
  }
  if (kind == kRecordRetract) {
    // A shed submission: the gate journaled the arrival, then the queue
    // refused it. Always the newest arrival, never a probed one.
    if (arrivals.empty() || seq != arrivals.size() - 1 ||
        arrivals.back().probed) {
      return false;
    }
    arrivals.pop_back();
    return true;
  }
  return false;  // unknown record kind
}

core::LogSchema arrival_schema(std::span<const mp::BigInt> seed,
                               ArrivalReplay& replay) {
  const std::uint64_t seed_digest = rsa::corpus_digest(seed);
  const std::uint64_t seed_count = seed.size();
  core::RecordWriter header({kMagic, sizeof(kMagic)});
  header.u64(seed_digest);
  header.u64(seed_count);
  return {
      .name = "arrival journal",
      .header = header.bytes(),
      .check_identity =
          [=](core::Cursor& c) -> std::string {
            std::uint64_t digest = 0, count = 0;
            c.u64(digest);
            c.u64(count);
            // Replaying someone else's arrivals would mis-index every
            // journaled hit against this seed.
            if (digest != seed_digest || count != seed_count) {
              return "written for a different seed corpus "
                     "(digest/count mismatch)";
            }
            return {};
          },
      .parse_record =
          [&replay, seed](core::Cursor& c) {
            return parse_record(c, replay.arrivals, seed);
          },
  };
}

}  // namespace

ArrivalJournal::ArrivalJournal(std::filesystem::path path,
                               std::span<const mp::BigInt> seed,
                               std::size_t fsync_every)
    : log_(std::move(path), arrival_schema(seed, replay_), fsync_every) {
  replay_.good_offset = log_.good_offset();
  // The worker probes strictly in arrival order, so probed records form a
  // seq prefix. Enforce it: past the first unprobed arrival everything is
  // tail — journaled hits there (possible only in a corrupt journal) are
  // discarded and those keys re-probed, which reproduces the same hits.
  bool prefix = true;
  for (auto& arrival : replay_.arrivals) {
    prefix = prefix && arrival.probed;
    if (!prefix && arrival.probed) {
      arrival.probed = false;
      arrival.hits.clear();
    }
  }
}

ArrivalReplay ArrivalJournal::take_replay() { return std::move(replay_); }

void ArrivalJournal::append_arrival(std::uint64_t seq,
                                    const mp::BigInt& value) {
  core::RecordWriter out;
  out.u8(kRecordArrival);
  out.u64(seq);
  out.bigint_bytes(value);
  log_.append(out.bytes());
}

void ArrivalJournal::append_probed(std::uint64_t seq,
                                   std::span<const bulk::FactorHit> hits) {
  core::RecordWriter out;
  out.u8(kRecordProbed);
  out.u64(seq);
  out.u32(std::uint32_t(hits.size()));
  for (const auto& hit : hits) {
    out.u64(hit.i);
    out.bigint_bytes(hit.factor);
  }
  log_.append(out.bytes());
}

void ArrivalJournal::append_retract(std::uint64_t seq) {
  core::RecordWriter out;
  out.u8(kRecordRetract);
  out.u64(seq);
  log_.append(out.bytes());
}

void ArrivalJournal::flush() { log_.sync(); }

}  // namespace bulkgcd::svc
