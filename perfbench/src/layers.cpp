// The traced run: one number per layer, each taken by timing calls into the
// layer's public functions from here, on the workload that drives it. The
// run is the same whichever workload names it, so every traced run prints
// every layer. README.md maps each number to the end-to-end metric it
// should move.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bulk/allpairs.hpp"
#include "bulk/staged_corpus.hpp"
#include "core/rng.hpp"
#include "gcd/algorithms.hpp"
#include "obs/trace.hpp"
#include "svc/intake_parser.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
namespace bulk = bulkgcd::bulk;
using bulkgcd::mp::BigInt;

/// A batch layer-sum gap above this share of wall time means the level
/// breakdown no longer accounts for the attack.
constexpr double kLayerSumTolerancePct = 2.0;

BigInt random_bits(bulkgcd::Xoshiro256& rng, std::size_t bits) {
  std::vector<std::uint32_t> limbs(bits / 32);
  for (auto& l : limbs) l = std::uint32_t(rng());
  limbs.back() |= 0x80000000u;
  return BigInt::from_limbs(limbs);
}

double best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// Fastest of `reps` timings, as for the end-to-end metrics (README.md).
template <typename Fn>
double best_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int k = 0; k < reps; ++k) ms.push_back(1e3 * time_once(fn));
  return best(ms);
}

double overhead_pct(const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  return 100.0 * (best(traced) / best(untraced) - 1.0);
}

void mp_layer(Metrics& m) {
  bulkgcd::Xoshiro256 rng(0x6d70'6c61'7965'7200ULL);
  struct Size {
    const char* name;
    std::size_t bits;
    int reps;
  };
  std::size_t sink = 0;  // keeps the products observable
  for (const Size s : {Size{"64k", 1u << 16, 9}, Size{"256k", 1u << 18, 5},
                       Size{"1m", 1u << 20, 3}}) {
    const BigInt a = random_bits(rng, s.bits), b = random_bits(rng, s.bits);
    const BigInt wide = random_bits(rng, 2 * s.bits);
    m.add(std::string("mp.mul_ms.") + s.name,
          best_ms(s.reps, [&] { sink += (a * b).size(); }), "ms");
    m.add(std::string("mp.divrem_ms.") + s.name,
          best_ms(s.reps, [&] { sink += (wide % b).size(); }), "ms");
  }
  if (sink == 0) std::printf("mp: empty products\n");
}

void gcd_layer(const std::vector<BigInt>& moduli, Metrics& m) {
  bulkgcd::gcd::GcdStats stats;
  std::size_t pairs = 0, shared = 0;
  const double s = time_once([&] {
    for (std::size_t i = 0; i + 1 < moduli.size(); i += 2, ++pairs) {
      shared += bulkgcd::gcd::probe_moduli_pair(
                    moduli[i], moduli[i + 1],
                    bulkgcd::gcd::Variant::kApproximate, &stats)
                    .shares_factor;
    }
  });
  m.add("gcd.ns_per_gcd", 1e9 * s / double(pairs), "ns");
  m.add("gcd.iters_per_gcd", double(stats.iterations) / double(pairs),
        "count");
}

double pairs_per_s(std::span<const BigInt> moduli, bulk::AllPairsConfig config,
                   std::vector<bulk::FactorHit>* hits = nullptr) {
  const auto result = bulk::all_pairs_gcd(moduli, config);
  if (hits) *hits = result.hits;
  return double(result.pairs_tested) / result.seconds;
}

void engine_layers(const std::vector<BigInt>& moduli, Outcome& out) {
  Metrics& m = out.metrics;
  // Single-worker rows per backend on a sub-corpus; the hit sets must agree.
  const std::span<const BigInt> sub256(moduli.data(), 256);
  std::vector<bulk::FactorHit> reference;
  for (const auto backend : {bulk::BulkBackend::kLockstep,
                             bulk::BulkBackend::kStaged,
                             bulk::BulkBackend::kVector}) {
    bulk::AllPairsConfig config;
    config.pool_threads = 1;
    config.backend = backend;
    std::vector<double> rates;
    std::vector<bulk::FactorHit> hits;
    for (int k = 0; k < 3; ++k) rates.push_back(pairs_per_s(sub256, config, &hits));
    if (backend == bulk::BulkBackend::kLockstep) reference = hits;
    bool same = hits.size() == reference.size();
    for (std::size_t k = 0; same && k < hits.size(); ++k) {
      same = hits[k].i == reference[k].i && hits[k].j == reference[k].j &&
             hits[k].factor == reference[k].factor;
    }
    if (!same) {
      out.correct = false;
      out.errors.push_back(std::string("bulk: ") + bulk::to_string(backend) +
                           " hits differ from lockstep");
    }
    m.add(std::string("bulk.w1_pairs_per_s.") + bulk::to_string(backend),
          *std::max_element(rates.begin(), rates.end()), "pairs/s");
  }

  // Worker scaling of the vector backend: N workers vs N × one worker.
  const std::span<const BigInt> sub512(moduli.data(), 512);
  std::vector<double> w1, w2, w4;
  for (int round = 0; round < 2; ++round) {
    for (auto [workers, rates] : {std::pair{1, &w1}, std::pair{2, &w2},
                                  std::pair{4, &w4}}) {
      bulk::AllPairsConfig config;
      config.backend = bulk::BulkBackend::kVector;
      config.pool_threads = std::size_t(workers);
      rates->push_back(pairs_per_s(sub512, config));
    }
  }
  const auto top = [](const std::vector<double>& v) {
    return *std::max_element(v.begin(), v.end());
  };
  m.add("bulk.sched.scaling_eff.w2", top(w2) / (2 * top(w1)), "ratio");
  m.add("bulk.sched.scaling_eff.w4", top(w4) / (4 * top(w1)), "ratio");
}

void probe_layers(const Context& ctx, const std::vector<BigInt>& moduli,
                  Metrics& m) {
  const std::span<const BigInt> seed(moduli.data(), kSeedSize);
  const bulk::AllPairsConfig defaults;
  const bulk::StagedCorpus staged(seed, defaults.group_size);
  for (const std::size_t pool : {0, 1, 4}) {
    bulk::AllPairsConfig config;
    config.pool_threads = pool;
    std::vector<double> ms;
    for (std::size_t k = 0; k < 40; ++k) {
      ms.push_back(1e3 * time_once([&] {
        bulk::probe_incremental(moduli[kSeedSize + k], staged, config);
      }));
    }
    m.add("bulk.probe_ms.pool" + std::to_string(pool), median(ms), "ms");
  }

  std::vector<double> append_us;
  for (int rep = 0; rep < 3; ++rep) {
    bulk::StagedCorpus growing(seed, defaults.group_size);
    const double s = time_once([&] {
      for (std::size_t k = kSeedSize; k < moduli.size(); ++k) {
        growing.append(moduli[k]);
      }
    });
    append_us.push_back(1e6 * s / double(moduli.size() - kSeedSize));
  }
  m.add("bulk.stage_append_us", best(append_us), "us");

  const std::string text = read_text(ctx.files.stream());
  std::vector<double> parse_us;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t records = 0;
    const double s = time_once([&] {
      bulkgcd::svc::IntakeParser parser;
      for (std::size_t pos = 0; pos < text.size(); pos += 65536) {
        parser.feed(std::string_view(text).substr(pos, 65536));
        records += parser.drain().size();
      }
      records += parser.finish().size();
    });
    parse_us.push_back(1e6 * s / double(records));
  }
  m.add("svc.parse_us_per_record", best(parse_us), "us");
}

void sweep_layers(const Context& ctx, const std::vector<BigInt>& moduli,
                  Outcome& out) {
  Metrics& m = out.metrics;
  const fs::path ckpt = ctx.work / "sweep.ckpt";
  // Interleaved: the scan as the sweep workload runs it, the same scan with
  // a trace recorder attached, and the bare all-pairs sweep it drives.
  std::vector<double> plain, traced, bare;
  SweepPass last;
  for (int round = 0; round < 2; ++round) {
    const SweepPass a = sweep_once(moduli, ckpt);
    check_sweep(a, ctx.truth, out);
    plain.push_back(a.wall_s);
    bulkgcd::obs::TraceRecorder recorder;
    last = sweep_once(moduli, ckpt, &recorder);
    check_sweep(last, ctx.truth, out);
    traced.push_back(last.wall_s);
    bare.push_back(time_once([&] { bulk::all_pairs_gcd(moduli, {}); }));
    out.attempted += 3;
  }
  m.add("bulk.lane_utilization", last.report.result.simt.lane_utilization(),
        "ratio");
  m.add("bulk.serialization_factor",
        last.report.result.simt.serialization_factor(), "ratio");
  m.add("bulk.scan.overhead_pct", overhead_pct(plain, bare), "%");
  m.add("bulk.scan.journal_bytes", double(fs::file_size(ckpt)), "bytes");
  m.add("trace.overhead_pct.sweep", overhead_pct(traced, plain), "%");
}

void batch_layers(const Context& ctx, const std::vector<BigInt>& moduli,
                  Outcome& out) {
  Metrics& m = out.metrics;
  const fs::path btr = ctx.work / "batch.btr";
  std::vector<double> plain, traced;
  BatchPass last;
  for (int round = 0; round < 2; ++round) {
    const BatchPass a = batch_once(moduli, btr);
    check_batch(a, ctx.truth, out);
    plain.push_back(a.wall_s);
    bulkgcd::obs::TraceRecorder recorder;
    last = batch_once(moduli, btr, &recorder);
    check_batch(last, ctx.truth, out);
    traced.push_back(last.wall_s);
    out.attempted += 2;
  }
  // Levels commit in order: depth−1 product levels, depth−1 remainder
  // levels, then the final gcds.
  const auto& done = last.level_done_s;
  const std::size_t product_levels = (done.size() - 1) / 2;
  double product = 0, remainder = 0, remainder_max = 0, previous = 0;
  for (std::size_t k = 0; k + 1 < done.size(); ++k) {
    const double level = done[k] - previous;
    previous = done[k];
    if (k < product_levels) {
      product += level;
    } else {
      remainder += level;
      remainder_max = std::max(remainder_max, level);
    }
  }
  const double final_s = done.back() - previous;
  const double gap_pct =
      100.0 * std::abs(product + remainder + final_s - last.wall_s) /
      last.wall_s;
  if (gap_pct > kLayerSumTolerancePct) {
    std::printf("batch: level times miss the wall time by %.2f%% (limit %.1f%%)\n",
                gap_pct, kLayerSumTolerancePct);
  }
  m.add("batchgcd.product_s", product, "s");
  m.add("batchgcd.remainder_s", remainder, "s");
  m.add("batchgcd.final_s", final_s, "s");
  m.add("batchgcd.remainder_level_max_s", remainder_max, "s");
  m.add("batchgcd.journal_bytes", double(fs::file_size(btr)), "bytes");
  m.add("batchgcd.layer_sum_gap_pct", gap_pct, "%");
  m.add("trace.overhead_pct.batch", overhead_pct(traced, plain), "%");
}

void intake_layers(const Context& ctx, Outcome& out) {
  Metrics& m = out.metrics;
  // One plain and one traced pass; the paced p99 pools both.
  std::vector<double> latency, late, submit_us, queue_wait_ms, plain, traced;
  std::uint64_t missing = 0;
  double batch_fill = 0;
  {
    bulkgcd::obs::TraceRecorder recorder;
    for (const bool with_trace : {false, true}) {
      const IntakePass pass = intake_once(ctx, with_trace, out,
                                          with_trace ? &recorder : nullptr);
      out.attempted += pass.submitted;
      out.failed += pass.failed;
      missing += pass.paced_missing;
      latency.insert(latency.end(), pass.latency_ms.begin(),
                     pass.latency_ms.end());
      late.insert(late.end(), pass.late_ms.begin(), pass.late_ms.end());
      (with_trace ? traced : plain).push_back(pass.burst_s);
      if (!with_trace) continue;
      submit_us.insert(submit_us.end(), pass.submit_us.begin(),
                       pass.submit_us.end());
      queue_wait_ms.insert(queue_wait_ms.end(), pass.queue_wait_ms.begin(),
                           pass.queue_wait_ms.end());
      batch_fill = pass.batch_fill;
    }
  }
  m.add("svc.verdict_p50_ms", median(latency), "ms");
  m.add("svc.verdict_p99_ms", paced_p99_ms(latency, missing), "ms");
  m.add("svc.submit_us.p50", median(submit_us), "us");
  m.add("svc.submit_us.p99", percentile(submit_us, 0.99), "us");
  m.add("svc.queue_wait_ms.p50", median(queue_wait_ms), "ms");
  m.add("svc.queue_wait_ms.p99", percentile(queue_wait_ms, 0.99), "ms");
  m.add("svc.batch_fill", batch_fill, "keys");
  m.add("load.gen_late_p99_ms", percentile(late, 0.99), "ms");
  m.add("trace.overhead_pct.intake", overhead_pct(traced, plain), "%");
}

}  // namespace

Outcome run_layers(const Context& ctx) {
  Outcome out;
  Metrics& m = out.metrics;
  std::vector<BigInt> moduli;
  m.add("rsa.load_ms", best_ms(5, [&] {
          moduli = load_corpus(ctx.files.corpus(), kCorpusSize);
        }),
        "ms");
  mp_layer(m);
  gcd_layer(moduli, m);
  engine_layers(moduli, out);
  probe_layers(ctx, moduli, m);
  sweep_layers(ctx, moduli, out);
  batch_layers(ctx, moduli, out);
  intake_layers(ctx, out);
  return out;
}

}  // namespace perfbench
