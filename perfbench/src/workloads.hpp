// The three workloads of the benchmark and the passes the traced run reuses.
//
//   sweep  — bulk::run_resumable_scan over the corpus (checkpoint on,
//            library defaults: auto backend, one worker per core)
//   batch  — batchgcd::run_resumable_batch over the same corpus (level
//            journal on)
//   intake — svc::IntakeParser → IntakeService::submit over the stream, with
//            the arrival journal on: a paced open-loop phase, then a burst
//            drained by stop()
//
// Every pass checks its result against the ground truth; a mismatch makes
// the run incorrect.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bulk/scan_driver.hpp"
#include "batchgcd/batchgcd.hpp"
#include "inputs.hpp"
#include "report.hpp"

namespace bulkgcd::obs {
class TraceRecorder;
}

namespace perfbench {

/// Open-loop rate of the intake paced phase, fixed in absolute terms (about
/// a third of the inline probe's burst capacity of ~70 keys/s measured on a
/// 4-core AVX2 machine) so two builds are offered the same load.
inline constexpr double kPacedRate = 25.0;  // records/s
/// Stream records sent in the paced phase; the rest form the burst.
inline constexpr std::size_t kPacedRecords = 150;
/// Latency limit on the paced phase's p99; a shed key counts as missing it.
inline constexpr double kLatencyLimitMs = 100.0;
/// Reported as the p99 when more than 1 % of paced keys were never folded.
inline constexpr double kMissedLatencyMs = 1e6;

struct Context {
  InputFiles files;
  Truth truth;
  std::vector<bulkgcd::mp::BigInt> corpus;  ///< for checks; loaded untimed
  std::filesystem::path work;  ///< scratch directory for journals
  double seconds = 10.0;       ///< measured time per run
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> errors;  ///< ground-truth mismatches
};

Outcome run_sweep(const Context& ctx);
Outcome run_batch(const Context& ctx);
Outcome run_intake(const Context& ctx);

/// The traced run: per-layer metrics of every layer (layers.cpp).
Outcome run_layers(const Context& ctx);

// ---- single passes, shared with the traced run ----------------------------

std::vector<bulkgcd::mp::BigInt> load_corpus(const std::filesystem::path& path,
                                             std::size_t expected);

struct SweepPass {
  bulkgcd::bulk::ScanReport report;
  double wall_s = 0.0;
};
/// One scan from a fresh checkpoint journal at `checkpoint`.
SweepPass sweep_once(const std::vector<bulkgcd::mp::BigInt>& moduli,
                     const std::filesystem::path& checkpoint,
                     bulkgcd::obs::TraceRecorder* trace = nullptr);
/// Mismatches between the scan's hits and the planted pairs.
void check_sweep(const SweepPass& pass, const Truth& truth, Outcome& out);

struct BatchPass {
  bulkgcd::batchgcd::BatchScanReport report;
  double wall_s = 0.0;
  /// Seconds from the call to each level commit (level_hook), when traced.
  std::vector<double> level_done_s;
};
BatchPass batch_once(const std::vector<bulkgcd::mp::BigInt>& moduli,
                     const std::filesystem::path& checkpoint,
                     bulkgcd::obs::TraceRecorder* trace = nullptr);
void check_batch(const BatchPass& pass, const Truth& truth, Outcome& out);

struct IntakePass {
  double setup_s = 0.0;
  std::vector<double> latency_ms;   ///< paced keys, due time → folded
  std::vector<double> late_ms;      ///< paced sends, send − due
  std::uint64_t paced_missing = 0;  ///< paced keys shed (miss the limit)
  std::uint64_t burst_keys = 0;     ///< keys probed in the burst phase
  std::uint64_t burst_pairs = 0;    ///< GCD pairs executed in the burst
  double burst_s = 0.0;             ///< first burst submit → stop() returned
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;         ///< shed + closed
  // Traced passes only:
  std::vector<double> submit_us;     ///< IntakeService::submit call time
  std::vector<double> queue_wait_ms; ///< paced: submit returned → batch start
  double batch_fill = 0.0;           ///< probed / batches
};
/// Nearest-rank p99 of paced latencies, counting `missing` keys (shed, or
/// never folded) as later than any limit.
double paced_p99_ms(std::vector<double> latency_ms, std::uint64_t missing);

/// One full pass over the stream through a freshly constructed service.
IntakePass intake_once(const Context& ctx, bool traced, Outcome& out,
                       bulkgcd::obs::TraceRecorder* trace = nullptr);

}  // namespace perfbench
