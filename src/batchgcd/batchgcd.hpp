// Bernstein-style batch GCD (product tree + remainder tree) — the published
// batch attack (Heninger et al. / fastgcd) that the pairwise approach is
// usually compared against. Implemented here as the crossover baseline for
// bench_batchgcd_crossover: batch GCD is asymptotically better in the number
// of moduli, while the paper's bulk pairwise Approximate Euclidean wins on
// parallel hardware for moderate corpus sizes.
//
// Identity used: with P = Π n_k and n_i | P,
//   gcd(n_i, P / n_i) = gcd(n_i, (P mod n_i²) / n_i),
// and the remainder tree delivers every P mod n_i² in O(M(total bits) log m).
//
// The tree runs on 64-bit limbs (mp::BigInt64) in every build: million-bit
// products and divisions take half the limbs of the paper's d = 32 words.
// Every public input and output stays mp::BigInt; the moduli are repacked
// once on the way in, and each (P mod n_i²) / n_i once on the way out to
// the d = 32 gcd.
//
// Two entry points:
//   batch_gcd            — one-shot, in-memory (the bench/test workhorse).
//   run_resumable_batch  — the checkpointed driver: each completed tree
//     level (product levels up, remainder levels down, final gcds) commits
//     to an append-only journal (batch_journal.hpp), so a SIGKILL at any
//     level resumes without recomputing finished levels. batch_gcd is this
//     driver with the journal switched off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <span>
#include <vector>

#include "mp/bigint.hpp"

namespace bulkgcd::obs {
class MetricsRegistry;
class TraceRecorder;
}  // namespace bulkgcd::obs

namespace bulkgcd::batchgcd {

/// Levels of the product tree in 64-bit limbs: level 0 = the moduli, each
/// higher level the pairwise products, top level a single root Π n_i.
using ProductTree = std::vector<std::vector<mp::BigInt64>>;

/// One product-tree level up: parent i = children[2i] · children[2i+1], an
/// odd last child promoted unchanged. The driver's step and the loop inside
/// build_product_tree.
std::vector<mp::BigInt64> product_level(std::span<const mp::BigInt64> children);

/// One remainder-tree level down: residues[i] = parents[i/2] mod nodes[i]²,
/// where parents[k] is the residue at the parent of nodes[2k] and
/// nodes[2k+1]. A promoted odd last node has the same value as its parent,
/// and a residue mod p² is already below p², so it takes its parent's
/// residue as is. Throws std::invalid_argument unless parents.size() ==
/// ceil(nodes.size() / 2).
std::vector<mp::BigInt64> remainder_level(std::span<const mp::BigInt64> parents,
                                          std::span<const mp::BigInt64> nodes);

/// The whole product tree over the moduli, repacked into level 0.
ProductTree build_product_tree(std::span<const mp::BigInt> moduli);

/// Descend the tree: value at each leaf i is root mod n_i².
std::vector<mp::BigInt64> remainder_tree_mod_squares(const ProductTree& tree);

struct BatchGcdResult {
  /// gcds[i] = gcd(n_i, Π_{k≠i} n_k): 1 when n_i shares no factor, the
  /// shared prime when it shares one factor, possibly n_i itself when both
  /// factors are shared (or the modulus is duplicated).
  std::vector<mp::BigInt> gcds;
  double seconds = 0.0;
};

/// Run the full batch-GCD attack over the corpus, in memory. With a registry
/// the run feeds the batchgcd_* metrics (docs/OBSERVABILITY.md).
BatchGcdResult batch_gcd(std::span<const mp::BigInt> moduli,
                         obs::MetricsRegistry* metrics = nullptr);

/// Configuration for the checkpointed driver. Defaults reproduce batch_gcd.
struct BatchScanConfig {
  /// Journal path. Empty ⇒ no checkpointing (pure in-memory run). The file
  /// is bound to the corpus identity (rsa::corpus_digest + count); opening
  /// a journal written for a different corpus throws std::runtime_error.
  std::filesystem::path checkpoint;
  /// fsync the journal after every this-many level commits (min 1). The
  /// final gcds record always syncs regardless.
  std::size_t fsync_every = 1;
  /// Stop (cleanly, complete=false) after committing this many levels in
  /// THIS run; 0 = run to completion. The final gcds level always finishes
  /// once started. Lets tests and the CLI exercise resume deterministically.
  std::size_t stop_after_levels = 0;
  /// Optional batchgcd_* metrics sink (null ⇒ zero-cost).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional trace sink: one span per tree level (product_level /
  /// remainder_level / final_gcds) plus journal fsync latency.
  obs::TraceRecorder* trace = nullptr;
  /// Called after every level committed this run with
  /// (levels_done_this_run, levels_total). The SIGKILL resume smoke raises
  /// its signal from here, mid-tree, with the journal already synced.
  std::function<void(std::size_t, std::size_t)> level_hook;
};

/// Outcome of one driver run (possibly a partial leg of a resumed attack).
struct BatchScanReport {
  /// gcds filled only when complete; seconds covers this run only.
  BatchGcdResult result;
  bool complete = false;
  /// True when any journaled state was restored (including a finished run
  /// whose gcds replayed straight from the journal).
  bool resumed = false;
  /// Total checkpointable levels for this corpus:
  /// (product levels) + (remainder levels) + 1 for the final gcds.
  std::uint64_t levels_total = 0;
  /// Levels computed and committed by THIS run.
  std::uint64_t levels_done = 0;
  /// Levels restored from the journal instead of recomputed.
  std::uint64_t levels_restored = 0;
};

/// The checkpointed batch-GCD driver. Computes level by level, committing
/// each completed level to the journal before starting the next, so the
/// process can die (SIGKILL included) at any point and a rerun with the same
/// corpus and checkpoint path resumes at the first uncommitted level — the
/// final gcds are bit-identical to an uninterrupted run.
BatchScanReport run_resumable_batch(std::span<const mp::BigInt> moduli,
                                    const BatchScanConfig& config = {});

/// Indices i with gcds[i] > 1 (weak moduli).
std::vector<std::size_t> weak_indices(const BatchGcdResult& result);

/// Indices i with gcds[i] == n_i: the batch-GCD analogue of
/// FactorHit::full_modulus. A duplicated modulus (or one sharing both primes
/// with the rest of the corpus) shows up weak, but n_i / gcds[i] == 1, so
/// these keys cannot be factored from the batch result alone.
std::vector<std::size_t> full_modulus_indices(const BatchGcdResult& result,
                                              std::span<const mp::BigInt> moduli);

}  // namespace bulkgcd::batchgcd
