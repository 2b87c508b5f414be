#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "rsa/keystore.hpp"
#include "svc/intake_parser.hpp"
#include "svc/intake_service.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using bulkgcd::mp::BigInt;
namespace bulk = bulkgcd::bulk;
namespace svc = bulkgcd::svc;

namespace {

std::string pair_text(std::size_t i, std::size_t j) {
  char text[48];
  std::snprintf(text, sizeof(text), "(%zu, %zu)", i, j);
  return text;
}

void mismatch(Outcome& out, std::string what) {
  out.correct = false;
  out.errors.push_back(std::move(what));
}

double lowest(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

double highest(const std::vector<double>& v) {
  return *std::max_element(v.begin(), v.end());
}

/// Expected and found factor hits, both sorted by (i, j).
struct HitView {
  std::size_t i, j;
  const BigInt* factor;
};

void compare_hits(const char* layer, const std::vector<HitView>& expected,
                  const std::vector<HitView>& found, Outcome& out) {
  if (expected.size() != found.size()) {
    mismatch(out, std::string(layer) + ": " + std::to_string(found.size()) +
                      " hits, planted " + std::to_string(expected.size()));
  }
  for (std::size_t k = 0; k < std::min(expected.size(), found.size()); ++k) {
    const auto& e = expected[k];
    const auto& f = found[k];
    if (e.i != f.i || e.j != f.j || *e.factor != *f.factor) {
      mismatch(out, std::string(layer) + ": hit " + pair_text(f.i, f.j) +
                        " where " + pair_text(e.i, e.j) + " was planted");
      return;
    }
  }
}

/// The two whole-corpus attacks, from their fastest pass: a shared host's
/// noise only ever adds time, so the best pass is the steadiest estimate of
/// what the code costs.
void attack_metrics(const std::vector<double>& walls,
                    const std::vector<double>& setups, std::uint64_t attempted,
                    std::uint64_t failed, Outcome& out) {
  const double m = double(kCorpusSize);
  const double best = lowest(walls);
  out.attempted = attempted;
  out.failed = failed;
  out.metrics.add("setup_s", lowest(setups), "s");
  out.metrics.add("pairs_per_s", m * (m - 1) / 2 / best, "pairs/s");
  out.metrics.add("keys_per_s", m / best, "keys/s");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.metrics.add("served_frac", 1.0 - double(failed) / double(attempted),
                  "ratio");
}

/// Set-up samples are spread over the run, a few before every pass, so the
/// fastest is not at the mercy of one slow moment on a shared host.
constexpr int kSetupsPerPass = 3;

template <typename Fn>
void time_setups(std::vector<double>& samples, Fn&& setup) {
  for (int k = 0; k < kSetupsPerPass; ++k) samples.push_back(time_once(setup));
}

/// Untimed: starts the global pool's threads and pages in the engines, so
/// the first timed pass is not the one that pays for it.
void warm_up(const Context& ctx) {
  const std::span<const BigInt> head(ctx.corpus.data(), 256);
  bulk::all_pairs_gcd(head);
  bulkgcd::batchgcd::batch_gcd(head);
}

/// Repeat `pass` at least twice, and again while another pass of the mean
/// length still fits in the run's measuring time.
template <typename Fn>
void repeat_for(double seconds, Fn&& pass) {
  double used = 0.0;
  for (int reps = 0; reps < 2 || used * (reps + 1) / reps <= seconds; ++reps) {
    const double s = time_once(pass);
    std::printf("pass %d: %.3f s\n", reps, s);
    used += s;
  }
}

}  // namespace

std::vector<BigInt> load_corpus(const fs::path& path, std::size_t expected) {
  auto moduli = bulkgcd::rsa::load_moduli(path);
  if (moduli.size() != expected) {
    throw std::runtime_error(path.string() + ": " +
                             std::to_string(moduli.size()) + " moduli, want " +
                             std::to_string(expected));
  }
  return moduli;
}

// ---- sweep ----------------------------------------------------------------

SweepPass sweep_once(const std::vector<BigInt>& moduli,
                     const fs::path& checkpoint,
                     bulkgcd::obs::TraceRecorder* trace) {
  fs::remove(checkpoint);
  bulk::ScanConfig config;
  config.checkpoint = checkpoint;
  config.pairs.trace = trace;
  SweepPass pass;
  pass.wall_s =
      time_once([&] { pass.report = bulk::run_resumable_scan(moduli, config); });
  return pass;
}

void check_sweep(const SweepPass& pass, const Truth& truth, Outcome& out) {
  if (!pass.report.complete) mismatch(out, "sweep: scan did not complete");
  std::vector<HitView> expected, found;
  for (const auto& p : truth.pairs) expected.push_back({p.i, p.j, &p.prime});
  for (const auto& h : pass.report.result.hits) {
    found.push_back({h.i, h.j, &h.factor});
  }
  compare_hits("sweep", expected, found, out);
}

Outcome run_sweep(const Context& ctx) {
  Outcome out;
  std::vector<BigInt> moduli;
  std::vector<double> setups, walls;
  const auto load = [&] { moduli = load_corpus(ctx.files.corpus(), kCorpusSize); };
  time_setups(setups, load);
  warm_up(ctx);
  std::uint64_t chunks = 0, quarantined = 0;
  repeat_for(ctx.seconds, [&] {
    time_setups(setups, load);
    const auto t0 = Clock::now();
    const SweepPass pass = sweep_once(moduli, ctx.work / "sweep.ckpt");
    check_sweep(pass, ctx.truth, out);
    walls.push_back(seconds_between(t0, Clock::now()));
    chunks += pass.report.chunks_total;
    quarantined += pass.report.quarantined.size();
  });
  attack_metrics(walls, setups, chunks, quarantined, out);
  return out;
}

// ---- batch ----------------------------------------------------------------

BatchPass batch_once(const std::vector<BigInt>& moduli,
                     const fs::path& checkpoint,
                     bulkgcd::obs::TraceRecorder* trace) {
  fs::remove(checkpoint);
  bulkgcd::batchgcd::BatchScanConfig config;
  config.checkpoint = checkpoint;
  BatchPass pass;
  const auto t0 = Clock::now();
  if (trace) {
    config.trace = trace;
    config.level_hook = [&](std::size_t, std::size_t) {
      pass.level_done_s.push_back(seconds_between(t0, Clock::now()));
    };
  }
  pass.report = bulkgcd::batchgcd::run_resumable_batch(moduli, config);
  pass.wall_s = seconds_between(t0, Clock::now());
  return pass;
}

void check_batch(const BatchPass& pass, const Truth& truth, Outcome& out) {
  if (!pass.report.complete) {
    mismatch(out, "batch: tree did not complete");
    return;
  }
  std::set<std::size_t> planted;
  for (const auto& p : truth.pairs) planted.insert({p.i, p.j});
  const auto weak = bulkgcd::batchgcd::weak_indices(pass.report.result);
  if (!std::equal(weak.begin(), weak.end(), planted.begin(), planted.end())) {
    mismatch(out, "batch: " + std::to_string(weak.size()) +
                      " weak moduli, planted " +
                      std::to_string(planted.size()));
  }
  const auto& gcds = pass.report.result.gcds;
  for (const auto& p : truth.pairs) {
    if (gcds.at(p.i) != p.prime || gcds.at(p.j) != p.prime) {
      mismatch(out, "batch: wrong gcd for planted pair " + pair_text(p.i, p.j));
    }
  }
}

Outcome run_batch(const Context& ctx) {
  Outcome out;
  std::vector<BigInt> moduli;
  std::vector<double> setups, walls;
  const auto load = [&] { moduli = load_corpus(ctx.files.corpus(), kCorpusSize); };
  time_setups(setups, load);
  warm_up(ctx);
  std::uint64_t levels = 0, unfinished = 0;
  repeat_for(ctx.seconds, [&] {
    time_setups(setups, load);
    const auto t0 = Clock::now();
    const BatchPass pass = batch_once(moduli, ctx.work / "batch.btr");
    check_batch(pass, ctx.truth, out);
    walls.push_back(seconds_between(t0, Clock::now()));
    levels += pass.report.levels_total;
    unfinished += pass.report.levels_total - pass.report.levels_done;
  });
  attack_metrics(walls, setups, levels, unfinished, out);
  return out;
}

// ---- intake ---------------------------------------------------------------

namespace {

/// Keystore load of the seed plus the service constructor (staging the seed,
/// opening a fresh arrival journal).
std::unique_ptr<svc::IntakeService> make_service(
    const Context& ctx, svc::IntakeServiceConfig config) {
  // The probe runs inline on the service's worker (pool_threads = 1, the
  // library's latency-sensitive probe path): one wake-up per batch instead
  // of a pool fork-join per key, which on a shared VM made the burst rate
  // swing by 2x between runs. The pooled probe is measured per layer.
  config.probe.pool_threads = 1;
  config.journal_path = ctx.work / "intake.arj";
  fs::remove(config.journal_path);
  return std::make_unique<svc::IntakeService>(
      load_corpus(ctx.files.seed(), kSeedSize), std::move(config));
}

/// The stream cut into lines, each with its newline, fed to the parser one
/// record at a time.
class StreamFeed {
 public:
  explicit StreamFeed(std::string text) : text_(std::move(text)) {}

  bool done() const { return pos_ >= text_.size() && ended_; }

  /// Feed lines until the parser completes a record (or the stream ends).
  std::vector<svc::IntakeRecord> next() {
    std::vector<svc::IntakeRecord> records;
    while (records.empty() && pos_ < text_.size()) {
      std::size_t end = text_.find('\n', pos_);
      end = end == std::string::npos ? text_.size() : end + 1;
      parser_.feed(std::string_view(text_).substr(pos_, end - pos_));
      pos_ = end;
      records = parser_.drain();
    }
    if (records.empty() && !ended_) {
      records = parser_.finish();
      ended_ = true;
    }
    return records;
  }

 private:
  std::string text_;
  std::size_t pos_ = 0;
  bool ended_ = false;
  svc::IntakeParser parser_;
};

/// Submits parsed records and checks each verdict and the final hit set
/// against the truth, tracking where each admitted key folds.
class IntakeChecker {
 public:
  IntakeChecker(const Context& ctx, svc::IntakeService& service)
      : ctx_(ctx), service_(service) {
    for (std::size_t k = 0; k < kSeedSize; ++k) position_[k] = k;
  }

  /// Returns the verdict, or nullopt for a rejected record.
  std::optional<svc::Admission> submit(const svc::IntakeRecord& record,
                                       IntakePass& pass, Outcome& out,
                                       bool traced) {
    if (next_ >= ctx_.truth.records.size()) {
      mismatch(out, "intake: parser produced more records than planted");
      return std::nullopt;
    }
    const StreamRecord& truth = ctx_.truth.records[next_++];
    const bool malformed = truth.kind == StreamRecord::Kind::kMalformed;
    if (!record.ok) {
      ++rejects_;
      if (!malformed) mismatch(out, "intake: rejected a well-formed record");
      return std::nullopt;
    }
    if (malformed) {
      mismatch(out, "intake: accepted a malformed record");
      return std::nullopt;
    }
    if (record.n != ctx_.corpus[truth.key]) {
      mismatch(out, "intake: record parsed to the wrong modulus");
    }
    const bool seen = position_.count(truth.key) != 0;
    const auto t0 = Clock::now();
    const svc::Admission verdict = service_.submit(record.n);
    const auto t1 = Clock::now();
    if (traced) pass.submit_us.push_back(1e6 * seconds_between(t0, t1));
    ++pass.submitted;
    switch (verdict) {
      case svc::Admission::kAdmitted:
        if (seen) mismatch(out, "intake: admitted a duplicate");
        position_[truth.key] = kSeedSize + admitted_.size();
        admitted_.push_back(t1);
        break;
      case svc::Admission::kDuplicate:
        ++duplicates_;
        if (!seen) mismatch(out, "intake: new key called a duplicate");
        break;
      case svc::Admission::kShed:
      case svc::Admission::kClosed:
        ++pass.failed;
        break;
    }
    return verdict;
  }

  /// When each admitted key's submit returned, in admission order.
  const std::vector<Clock::time_point>& admit_times() const {
    return admitted_;
  }

  /// After stop(): the service's hits and counters against the truth.
  void finish(Outcome& out) const {
    if (next_ != ctx_.truth.records.size()) {
      mismatch(out, "intake: parser produced " + std::to_string(next_) +
                        " records, planted " +
                        std::to_string(ctx_.truth.records.size()));
    }
    std::size_t planted_bad = 0, planted_dups = 0;
    for (const auto& r : ctx_.truth.records) {
      planted_bad += r.kind == StreamRecord::Kind::kMalformed;
      planted_dups += r.kind == StreamRecord::Kind::kDuplicate;
    }
    if (rejects_ != planted_bad) {
      mismatch(out, "intake: " + std::to_string(rejects_) +
                        " rejects, planted " + std::to_string(planted_bad));
    }
    const auto stats = service_.stats();
    if (stats.duplicates != duplicates_ ||
        (stats.shed == 0 && duplicates_ != planted_dups)) {
      mismatch(out, "intake: " + std::to_string(stats.duplicates) +
                        " duplicates, planted " + std::to_string(planted_dups));
    }
    if (stats.probed != admitted_.size()) {
      mismatch(out, "intake: probed " + std::to_string(stats.probed) +
                        " of " + std::to_string(admitted_.size()) +
                        " admitted keys");
    }
    // Every planted pair with both keys in the corpus, except seed-internal
    // pairs (a prior batch scan's job), at the indices the keys folded at.
    std::vector<HitView> expected, found;
    for (const auto& p : ctx_.truth.pairs) {
      const auto a = position_.find(p.i), b = position_.find(p.j);
      if (a == position_.end() || b == position_.end()) continue;
      if (p.j < kSeedSize) continue;
      const auto [lo, hi] = std::minmax(a->second, b->second);
      expected.push_back({lo, hi, &p.prime});
    }
    std::sort(expected.begin(), expected.end(), [](const auto& x, const auto& y) {
      return std::pair(x.i, x.j) < std::pair(y.i, y.j);
    });
    const auto hits = service_.hits();
    for (const auto& h : hits) found.push_back({h.i, h.j, &h.factor});
    compare_hits("intake", expected, found, out);
  }

 private:
  const Context& ctx_;
  svc::IntakeService& service_;
  std::size_t next_ = 0;
  std::size_t rejects_ = 0;
  std::uint64_t duplicates_ = 0;
  std::unordered_map<std::size_t, std::size_t> position_;  // key → fold index
  std::vector<Clock::time_point> admitted_;
};

}  // namespace

double paced_p99_ms(std::vector<double> latency_ms, std::uint64_t missing) {
  latency_ms.insert(latency_ms.end(), missing,
                    std::numeric_limits<double>::infinity());
  const double p99 = percentile(latency_ms, 0.99);
  return std::isfinite(p99) ? p99 : kMissedLatencyMs;
}

IntakePass intake_once(const Context& ctx, bool traced, Outcome& out,
                       bulkgcd::obs::TraceRecorder* trace) {
  IntakePass pass;
  svc::IntakeServiceConfig config;
  config.probe.trace = trace;
  // The probe worker logs when each batch starts; read after stop() joins it.
  std::vector<std::pair<Clock::time_point, std::size_t>> batches;
  if (traced) {
    config.batch_hook = [&batches](std::size_t keys) {
      batches.emplace_back(Clock::now(), keys);
    };
  }
  std::unique_ptr<svc::IntakeService> service;
  pass.setup_s = time_once([&] { service = make_service(ctx, config); });

  StreamFeed feed(read_text(ctx.files.stream()));
  IntakeChecker checker(ctx, *service);

  // Paced open-loop phase: record r is due at start + r / rate whatever the
  // service is doing. An observer thread polls the public probed count; the
  // probe worker is FIFO, so the k-th admitted key is folded once probed > k.
  std::vector<Clock::time_point> folded(kCorpusSize);
  std::atomic<std::uint64_t> observed{0};
  std::jthread observer([&](std::stop_token stop) {
    std::uint64_t last = 0;
    while (!stop.stop_requested()) {
      const std::uint64_t probed =
          std::min<std::uint64_t>(service->stats().probed, folded.size());
      if (probed > last) {
        const auto now = Clock::now();
        for (std::uint64_t k = last; k < probed; ++k) folded[k] = now;
        last = probed;
        observed.store(probed, std::memory_order_release);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kPacedRate));
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due_of_admitted;
  for (std::size_t r = 0; r < kPacedRecords && !feed.done(); ++r) {
    const auto due = start + r * period;
    std::this_thread::sleep_until(due);
    pass.late_ms.push_back(1e3 * seconds_between(due, Clock::now()));
    for (const auto& record : feed.next()) {
      const auto verdict = checker.submit(record, pass, out, traced);
      if (verdict == svc::Admission::kAdmitted) due_of_admitted.push_back(due);
      if (verdict == svc::Admission::kShed) ++pass.paced_missing;
    }
  }
  const auto drain_deadline = Clock::now() + std::chrono::seconds(60);
  while (observed.load(std::memory_order_acquire) < due_of_admitted.size() &&
         Clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  observer.request_stop();
  observer.join();
  const std::uint64_t paced_done = observed.load(std::memory_order_acquire);
  for (std::size_t k = 0; k < due_of_admitted.size(); ++k) {
    if (k < paced_done) {
      pass.latency_ms.push_back(
          1e3 * seconds_between(due_of_admitted[k], folded[k]));
    } else {
      ++pass.paced_missing;  // never folded: counts against the limit
    }
  }

  // Burst phase: the rest of the stream as fast as it parses, then stop()
  // drains the queue.
  const auto before = service->stats();
  const auto burst_start = Clock::now();
  while (!feed.done()) {
    for (const auto& record : feed.next()) {
      checker.submit(record, pass, out, traced);
    }
  }
  service->stop();
  pass.burst_s = seconds_between(burst_start, Clock::now());
  const auto after = service->stats();
  pass.burst_keys = after.probed - before.probed;
  pass.burst_pairs = after.pairs - before.pairs;
  checker.finish(out);

  if (traced) {
    pass.batch_fill =
        after.batches ? double(after.probed) / double(after.batches) : 0.0;
    // Paced keys only: the wait behind paced latency, not the burst backlog.
    const auto& admitted = checker.admit_times();
    std::size_t k = 0;
    for (const auto& [started, keys] : batches) {
      for (std::size_t n = 0; n < keys && k < due_of_admitted.size(); ++n, ++k) {
        pass.queue_wait_ms.push_back(
            1e3 * seconds_between(admitted[k], started));
      }
    }
  }
  return pass;
}

Outcome run_intake(const Context& ctx) {
  Outcome out;
  std::vector<double> setup, latency, keys_per_s, pairs_per_s;
  std::uint64_t missing = 0;
  warm_up(ctx);
  const auto construct = [&] { make_service(ctx, {}); };
  time_setups(setup, construct);
  repeat_for(ctx.seconds, [&] {
    time_setups(setup, construct);
    IntakePass pass = intake_once(ctx, /*traced=*/false, out);
    setup.push_back(pass.setup_s);
    latency.insert(latency.end(), pass.latency_ms.begin(),
                   pass.latency_ms.end());
    missing += pass.paced_missing;
    keys_per_s.push_back(double(pass.burst_keys) / pass.burst_s);
    pairs_per_s.push_back(double(pass.burst_pairs) / pass.burst_s);
    out.attempted += pass.submitted;
    out.failed += pass.failed;
  });
  // Best pass, as for the attacks: the fastest burst. The paced latency is
  // printed, not bounded (README.md: it follows the host's wake-up latency).
  out.metrics.add("setup_s", lowest(setup), "s");
  out.metrics.add("pairs_per_s", highest(pairs_per_s), "pairs/s");
  out.metrics.add("keys_per_s", highest(keys_per_s), "keys/s");
  out.metrics.add("peak_rss_mb", peak_rss_mb(), "MB");
  out.metrics.add("served_frac",
                  1.0 - double(out.failed) / double(out.attempted), "ratio");
  std::printf("intake: paced p50 %.3f ms, p99 %.3f ms over %zu keys (limit "
              "%.0f ms)\n",
              median(latency), paced_p99_ms(latency, missing),
              latency.size() + missing, kLatencyLimitMs);
  return out;
}

}  // namespace perfbench
