// perfbench — the repository benchmark harness (see README.md here).
//
//   perfbench gen --seed N --out DIR
//       write the seeded inputs and their ground truth into DIR
//   perfbench run --workload sweep|batch|intake --inputs DIR --work DIR
//                 --seconds S --trace 0|1 --seed N --commit ID
//       measure one workload (trace 0: end-to-end metrics) or the per-layer
//       suite (trace 1); the last stdout line is the result object
//
// Exit codes: 0 correct, 1 a result disagreed with the ground truth, 2 usage
// or I/O error (no result printed).
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "bulk/allpairs.hpp"
#include "bulk/build_info.hpp"
#include "core/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int k = 2; k + 1 < argc; k += 2) {
    std::string name = argv[k];
    if (name.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + name);
    flags[name.substr(2)] = argv[k + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& name) {
  const auto it = flags.find(name);
  if (it == flags.end()) throw std::invalid_argument("missing --" + name);
  return it->second;
}

/// What ran where: printed before the result so rows from different
/// machines, worker counts or ISAs are never read as one.
void print_stamp(const std::map<std::string, std::string>& flags) {
  bulkgcd::bulk::AllPairsConfig config;
  bulkgcd::bulk::resolve_backend(config);
  const auto info = bulkgcd::bulk::query_build_info();
  std::printf(
      "stamp {\"workload\": \"%s\", \"seed\": %s, \"commit\": \"%s\", "
      "\"trace\": %s, \"nproc\": %u, \"workers\": %zu, \"backend\": \"%s\", "
      "\"vec_isa\": \"%s\", \"limb_bits\": %d, \"build_type\": \"%s\", "
      "\"paced_rate_per_s\": %.0f, \"latency_limit_ms\": %.0f, "
      "\"generator_threads\": 2, \"build_info\": %s}\n",
      need(flags, "workload").c_str(), need(flags, "seed").c_str(),
      need(flags, "commit").c_str(), need(flags, "trace").c_str(),
      std::thread::hardware_concurrency(),
      // The intake probe runs inline on the service's worker.
      need(flags, "workload") == "intake" && need(flags, "trace") == "0"
          ? std::size_t(1)
          : bulkgcd::global_pool().size(),
      bulkgcd::bulk::to_string(config.backend),
      bulkgcd::bulk::to_string(config.vec_isa), info.limb_bits,
      PERFBENCH_BUILD_TYPE, kPacedRate, kLatencyLimitMs,
      bulkgcd::bulk::build_info_json(info, 0.0).c_str());
}

int run(const std::map<std::string, std::string>& flags) {
  Context ctx;
  ctx.files.dir = need(flags, "inputs");
  ctx.work = need(flags, "work");
  ctx.seconds = std::stod(need(flags, "seconds"));
  ctx.truth = load_truth(ctx.files);
  ctx.corpus = load_corpus(ctx.files.corpus(), kCorpusSize);
  std::filesystem::create_directories(ctx.work);

  const std::string workload = need(flags, "workload");
  const bool traced = need(flags, "trace") == "1";
  if (workload != "sweep" && workload != "batch" && workload != "intake") {
    throw std::invalid_argument("unknown workload " + workload);
  }
  print_stamp(flags);
  const Outcome out = traced                  ? run_layers(ctx)
                      : workload == "sweep"   ? run_sweep(ctx)
                      : workload == "batch"   ? run_batch(ctx)
                                              : run_intake(ctx);
  out.metrics.print_table(stdout);
  for (const auto& e : out.errors) std::fprintf(stderr, "MISMATCH %s\n", e.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      out.correct ? "true" : "false", (unsigned long long)out.attempted,
      (unsigned long long)out.failed, out.metrics.to_json().c_str());
  return out.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    const auto flags = parse_flags(argc, argv);
    if (command == "gen") {
      InputFiles files{need(flags, "out")};
      std::filesystem::create_directories(files.dir);
      generate_inputs(std::stoull(need(flags, "seed")), files);
      return 0;
    }
    if (command == "run") return run(flags);
    std::fprintf(stderr, "usage: perfbench gen|run --flag value ...\n");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
  }
  return 2;
}
