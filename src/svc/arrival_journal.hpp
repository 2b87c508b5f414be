// Durable arrival journal for the streaming intake service — the element
// that makes a streamed corpus survive a crash (docs/INTAKE_SERVICE.md).
//
// A schema over core::RecordLog (docs/RECORD_LOG.md), which owns the
// framing, torn-tail recovery and fsync cadence. The header binds the
// journal to the seed corpus (digest + count). Three record kinds:
//
//   arrival(seq, value)      — written by the admission gate the moment a key
//                              enters the queue: the key is durable before it
//                              is probed.
//   probed(seq, hits)        — written by the probe worker after the key is
//                              probed and folded: the arrival's pair coverage
//                              is settled. Hit factors are journaled as
//                              canonical little-endian bytes (limb-width
//                              portable); the fold index j and the
//                              full_modulus flag are recomputed on replay
//                              (j = seed_count + seq).
//   retract(seq)             — the queue shed the arrival just journaled.
//
// Replay rebuilds exactly the state a restarted service needs: probed
// arrivals re-fold with their journaled hits (no GCDs re-run), the unprobed
// tail re-enters the probe path — so streamed-then-restarted coverage equals
// one uninterrupted stream, pair for pair (asserted in tests/svc_test.cpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "bulk/allpairs.hpp"
#include "core/record_log.hpp"
#include "mp/bigint.hpp"

namespace bulkgcd::svc {

/// One arrival reconstructed from the journal, in arrival-seq order.
struct ReplayedArrival {
  mp::BigInt value;
  /// A probed record was found (and every earlier arrival is probed too):
  /// the hits below are authoritative and the key needs no re-probe.
  bool probed = false;
  /// Journaled hits of this arrival's probe: index of the earlier corpus
  /// member + shared factor. j and full_modulus are the caller's to derive.
  std::vector<std::pair<std::uint64_t, mp::BigInt>> hits;
};

/// Everything parsed from an existing journal at open.
struct ArrivalReplay {
  std::vector<ReplayedArrival> arrivals;
  /// File prefix that parsed cleanly; bytes past it (torn tail) were
  /// truncated before the journal reopened for append.
  std::size_t good_offset = 0;
};

/// Open-for-append arrival journal bound to one seed corpus identity.
/// Thread-safe: the admission gate and the probe worker append concurrently
/// (each append is one locked write; record bytes never interleave).
class ArrivalJournal {
 public:
  /// Opens `path`, creating it with a fresh header when absent or empty.
  /// An existing journal must carry the same seed identity — digest
  /// (rsa::corpus_digest over the seed) and count — else this throws
  /// std::runtime_error: replaying someone else's arrivals into this corpus
  /// would silently mis-index every hit. On a match, all complete records
  /// are parsed (take_replay()), the torn tail is truncated, and the file is
  /// positioned for append. A probed hit whose factor is not a factor > 1 of
  /// both its moduli counts as damage: the tail is cut there and those keys
  /// are probed again. `seed` is read only while the constructor runs.
  ArrivalJournal(std::filesystem::path path, std::span<const mp::BigInt> seed,
                 std::size_t fsync_every = 1);

  ArrivalJournal(const ArrivalJournal&) = delete;
  ArrivalJournal& operator=(const ArrivalJournal&) = delete;

  /// The state parsed at open; meaningful once, immediately after
  /// construction (moves the arrivals out).
  ArrivalReplay take_replay();

  /// Journal one admitted key. seq must be the arrival's dense 0-based
  /// sequence number (the caller assigns them in admission order).
  void append_arrival(std::uint64_t seq, const mp::BigInt& value);

  /// Journal the probe outcome of arrival `seq`. Only FactorHit::i and
  /// ::factor are persisted; j/full_modulus are derivable on replay.
  void append_probed(std::uint64_t seq,
                     std::span<const bulk::FactorHit> hits);

  /// Undo the newest arrival record: the admission queue shed the key after
  /// the gate journaled it. `seq` must be the seq just passed to
  /// append_arrival; on replay the pair cancels out, so shed keys are never
  /// resurrected into the corpus.
  void append_retract(std::uint64_t seq);

  /// Flush + fsync anything buffered (also done by the destructor).
  void flush();

 private:
  ArrivalReplay replay_;  // filled while log_ opens: declared first
  core::RecordLog log_;
};

}  // namespace bulkgcd::svc
