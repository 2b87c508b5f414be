// Batch-GCD (product/remainder tree) tests: tree invariants against GMP and
// against 32-bit BigInt arithmetic (the tree runs on 64-bit limbs), and
// agreement with the pairwise attack on planted corpora.
#include "batchgcd/batchgcd.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "batchgcd/batch_journal.hpp"
#include "bulk/allpairs.hpp"
#include "gmp_oracle.hpp"
#include "mp/divrem_bz.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"

namespace bulkgcd::batchgcd {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::gmp_gcd;
using bulkgcd::test::random_odd;
using mp::BigInt;
using mp::BigInt64;

BigInt64 wide(const BigInt& v) { return mp::repack<std::uint64_t>(v); }
BigInt narrow(const BigInt64& v) { return mp::repack<std::uint32_t>(v); }

TEST(ProductTreeTest, RootIsTheFullProduct) {
  Xoshiro256 rng(121);
  std::vector<BigInt> values;
  BigInt expected(1);
  for (int i = 0; i < 13; ++i) {  // odd count exercises the promoted node
    values.push_back(random_odd<std::uint32_t>(rng, 100));
    expected = expected * values.back();
  }
  const ProductTree tree = build_product_tree(values);
  EXPECT_EQ(tree.back().size(), 1u);
  EXPECT_EQ(narrow(tree.back()[0]), expected);
  EXPECT_EQ(tree.front().size(), values.size());
}

TEST(ProductTreeTest, EveryParentIsProductOfChildren) {
  Xoshiro256 rng(122);
  std::vector<BigInt> values;
  for (int i = 0; i < 10; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 80));
  }
  const ProductTree tree = build_product_tree(values);
  for (std::size_t level = 0; level + 1 < tree.size(); ++level) {
    const auto& children = tree[level];
    const auto& parents = tree[level + 1];
    for (std::size_t i = 0; i < parents.size(); ++i) {
      if (2 * i + 1 < children.size()) {
        EXPECT_EQ(parents[i], children[2 * i] * children[2 * i + 1]);
      } else {
        EXPECT_EQ(parents[i], children[2 * i]);
      }
    }
  }
}

TEST(ProductTreeTest, SingleElementAndEmpty) {
  const std::vector<BigInt> one = {BigInt(17)};
  const ProductTree tree = build_product_tree(one);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree[0][0], BigInt64(17));
  EXPECT_THROW(build_product_tree({}), std::invalid_argument);
}

TEST(RemainderTreeTest, LeavesAreRootModSquares) {
  Xoshiro256 rng(123);
  std::vector<BigInt> values;
  for (int i = 0; i < 9; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 120));
  }
  const ProductTree tree = build_product_tree(values);
  const auto residues = remainder_tree_mod_squares(tree);
  ASSERT_EQ(residues.size(), values.size());
  const BigInt root = narrow(tree.back()[0]);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(narrow(residues[i]), root % (values[i] * values[i]))
        << "leaf " << i;
  }
}

TEST(RemainderLevelTest, EveryLevelIsTheRootModItsNodeSquares) {
  Xoshiro256 rng(125);
  std::vector<BigInt> values;
  for (int i = 0; i < 13; ++i) {  // odd count: promoted nodes at two levels
    values.push_back(random_odd<std::uint32_t>(rng, 96));
  }
  const ProductTree tree = build_product_tree(values);
  const BigInt64& root = tree.back()[0];
  std::vector<BigInt64> residues(1, root);
  for (std::size_t level = tree.size() - 1; level-- > 0;) {
    residues = remainder_level(residues, tree[level]);
    ASSERT_EQ(residues.size(), tree[level].size()) << "level " << level;
    for (std::size_t i = 0; i < residues.size(); ++i) {
      EXPECT_EQ(residues[i], root % (tree[level][i] * tree[level][i]))
          << "level " << level << " node " << i;
    }
  }
}

TEST(RemainderLevelTest, PromotedNodeTakesItsParentResidue) {
  // 5 nodes: node 4 is the odd one out, promoted unchanged to its parent.
  // Its parent's residue is already below 13², so the step passes it down
  // as is; every other node is reduced modulo its own square.
  std::vector<BigInt64> nodes;
  for (int v : {3, 5, 7, 11, 13}) nodes.push_back(BigInt64(unsigned(v)));
  const std::vector<BigInt64> parents = {BigInt64(1000), BigInt64(5000),
                                         BigInt64(168)};
  const auto residues = remainder_level(parents, nodes);
  ASSERT_EQ(residues.size(), nodes.size());
  EXPECT_EQ(residues[0], BigInt64(1000 % 9));
  EXPECT_EQ(residues[1], BigInt64(1000 % 25));
  EXPECT_EQ(residues[2], BigInt64(5000 % 49));
  EXPECT_EQ(residues[3], BigInt64(5000 % 121));
  EXPECT_EQ(residues[4], BigInt64(168));
}

TEST(RemainderLevelTest, ShapeMismatchThrows) {
  const std::vector<BigInt64> nodes = {BigInt64(3), BigInt64(5), BigInt64(7),
                                       BigInt64(11)};
  const std::vector<BigInt64> one_parent = {BigInt64(100)};
  const std::vector<BigInt64> three_parents = {BigInt64(1), BigInt64(2),
                                               BigInt64(3)};
  EXPECT_THROW(remainder_level(one_parent, nodes), std::invalid_argument);
  EXPECT_THROW(remainder_level(three_parents, nodes), std::invalid_argument);
  EXPECT_THROW(remainder_tree_mod_squares(ProductTree{}),
               std::invalid_argument);
}

TEST(RemainderLevelTest, PowerOfTwoPlusOneCorpusIsBitIdentical) {
  // 2^5 + 1 leaves: the last leaf rides up five levels as a promoted node,
  // so every level of the descent takes the copy path for it. Plant a weak
  // pair on that leaf and check residues and gcds against direct reduction
  // and GMP.
  rsa::CorpusSpec spec;
  spec.count = 33;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 36;
  rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const std::size_t last = corpus.moduli.size() - 1;
  const std::size_t weak_leaf = corpus.weak[0].first;
  std::swap(corpus.moduli[weak_leaf], corpus.moduli[last]);

  const ProductTree tree = build_product_tree(corpus.moduli);
  ASSERT_EQ(tree.size(), 7u);
  for (std::size_t level = 1; level + 1 < tree.size(); ++level) {
    ASSERT_EQ(tree[level].back(), wide(corpus.moduli[last]))
        << "level " << level;
  }
  const BigInt root = narrow(tree.back()[0]);
  const auto residues = remainder_tree_mod_squares(tree);
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  for (std::size_t i = 0; i < corpus.moduli.size(); ++i) {
    const BigInt& n = corpus.moduli[i];
    EXPECT_EQ(narrow(residues[i]), root % (n * n)) << "leaf " << i;
    EXPECT_EQ(result.gcds[i], gmp_gcd(n, root / n)) << "leaf " << i;
  }
  EXPECT_EQ(result.gcds[last], corpus.weak[0].shared_prime);
}

TEST(RemainderLevelTest, DescentAcrossTheDivisionRungMatchesDirectReduction) {
  // 64 × 512-bit leaves: the upper levels divide by squares of thousands of
  // bits, where BigInt64 % runs Burnikel–Ziegler; the leaf residues are
  // checked against one direct 32-bit reduction of the root per leaf, whose
  // small divisors stay on Knuth D.
  Xoshiro256 rng(127);
  std::vector<BigInt> values;
  for (int i = 0; i < 64; ++i) {
    values.push_back(random_odd<std::uint32_t>(rng, 512));
  }
  const ProductTree tree = build_product_tree(values);
  // The step below the root's children meets BigIntT::divmod's BZ rule at
  // 64-bit limbs: divisors of at least 2·threshold limbs, quotients of at
  // least threshold limbs.
  const auto& top = tree[tree.size() - 2];
  const BigInt64 dividend = tree.back()[0] % (top[0] * top[0]);
  for (std::size_t i = 0; i < 2; ++i) {  // top[0]'s children
    const BigInt64& node = tree[tree.size() - 3][i];
    const std::size_t divisor = (node * node).size();
    ASSERT_GE(divisor, 2 * mp::kBurnikelZieglerThreshold);
    ASSERT_GE(dividend.size() - divisor, mp::kBurnikelZieglerThreshold);
  }
  const BigInt root = narrow(tree.back()[0]);
  const auto residues = remainder_tree_mod_squares(tree);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(narrow(residues[i]), root % (values[i] * values[i]))
        << "leaf " << i;
  }
}

TEST(BatchGcdTest, FindsExactlyThePlantedWeakModuli) {
  rsa::CorpusSpec spec;
  spec.count = 20;
  spec.modulus_bits = 128;
  spec.weak_pairs = 3;
  spec.seed = 31;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  const BatchGcdResult result = batch_gcd(corpus.moduli);
  std::set<std::size_t> expected_weak;
  for (const auto& weak : corpus.weak) {
    expected_weak.insert(weak.first);
    expected_weak.insert(weak.second);
  }
  const auto found = weak_indices(result);
  EXPECT_EQ(std::set<std::size_t>(found.begin(), found.end()), expected_weak);
  for (const auto& weak : corpus.weak) {
    EXPECT_EQ(result.gcds[weak.first], weak.shared_prime);
    EXPECT_EQ(result.gcds[weak.second], weak.shared_prime);
  }
}

TEST(BatchGcdTest, CleanCorpusYieldsAllOnes) {
  rsa::CorpusSpec spec;
  spec.count = 12;
  spec.modulus_bits = 128;
  spec.weak_pairs = 0;
  spec.seed = 32;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  EXPECT_TRUE(weak_indices(result).empty());
  for (const auto& g : result.gcds) EXPECT_EQ(g, BigInt(1));
}

TEST(BatchGcdTest, DuplicatedModulusIsFullyWeak) {
  Xoshiro256 rng(124);
  rsa::CorpusSpec spec;
  spec.count = 6;
  spec.modulus_bits = 128;
  spec.seed = 33;
  auto corpus = rsa::generate_corpus(spec);
  corpus.moduli.push_back(corpus.moduli[0]);  // duplicate key
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  // gcd(n, P/n) where n appears twice is n itself.
  EXPECT_EQ(result.gcds[0], corpus.moduli[0]);
  EXPECT_EQ(result.gcds.back(), corpus.moduli[0]);
  // Both duplicate slots are flagged unfactorable; nothing else is.
  const auto full = full_modulus_indices(result, corpus.moduli);
  EXPECT_EQ(full, (std::vector<std::size_t>{0, corpus.moduli.size() - 1}));
}

TEST(BatchGcdTest, FullModulusIndicesEmptyForProperWeakPairs) {
  rsa::CorpusSpec spec;
  spec.count = 10;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 35;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);
  const BatchGcdResult result = batch_gcd(corpus.moduli);
  EXPECT_FALSE(weak_indices(result).empty());
  EXPECT_TRUE(full_modulus_indices(result, corpus.moduli).empty());
}

TEST(BatchGcdTest, AgreesWithAllPairsSweep) {
  rsa::CorpusSpec spec;
  spec.count = 18;
  spec.modulus_bits = 128;
  spec.weak_pairs = 2;
  spec.seed = 34;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  const BatchGcdResult batch = batch_gcd(corpus.moduli);
  const bulk::AllPairsResult pairwise = bulk::all_pairs_gcd(corpus.moduli);

  std::set<std::size_t> batch_weak;
  for (const auto i : weak_indices(batch)) batch_weak.insert(i);
  std::set<std::size_t> pairwise_weak;
  for (const auto& hit : pairwise.hits) {
    pairwise_weak.insert(hit.i);
    pairwise_weak.insert(hit.j);
  }
  EXPECT_EQ(batch_weak, pairwise_weak);
}

// ---- resumable driver + level journal --------------------------------------

class BatchResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            (std::string("bulkgcd_batch_btr_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }
  void TearDown() override {
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  static rsa::WeakCorpus test_corpus(std::size_t count, std::size_t weak,
                                     std::uint64_t seed) {
    rsa::CorpusSpec spec;
    spec.count = count;
    spec.modulus_bits = 128;
    spec.weak_pairs = weak;
    spec.seed = seed;
    return rsa::generate_corpus(spec);
  }

  std::filesystem::path path_;
};

TEST_F(BatchResumeTest, UncheckpointedDriverMatchesBatchGcd) {
  const auto corpus = test_corpus(21, 3, 201);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);
  const BatchScanReport report = run_resumable_batch(corpus.moduli);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.resumed);
  EXPECT_EQ(report.levels_restored, 0u);
  EXPECT_EQ(report.levels_done, report.levels_total);
  EXPECT_EQ(report.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, LevelsTotalCountsBothTreePassesPlusGcds) {
  // 21 leaves → product levels of 11, 6, 3, 2, 1 nodes (5 pairings), the
  // same 5 descent steps, plus the final gcds vector.
  const auto corpus = test_corpus(21, 0, 202);
  const BatchScanReport report = run_resumable_batch(corpus.moduli);
  EXPECT_EQ(report.levels_total, 11u);
  // Single modulus: no tree at all, just the (trivial) gcds level.
  const std::vector<BigInt> one = {corpus.moduli[0]};
  const BatchScanReport tiny = run_resumable_batch(one);
  EXPECT_TRUE(tiny.complete);
  EXPECT_EQ(tiny.levels_total, 1u);
  EXPECT_EQ(tiny.result.gcds, std::vector<BigInt>{BigInt(1)});
}

TEST_F(BatchResumeTest, SingleLevelSlicesReachTheSameGcds) {
  const auto corpus = test_corpus(19, 2, 203);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 1;
  std::uint64_t total_done = 0;
  BatchScanReport report;
  for (int run = 0; run < 64; ++run) {  // bound: levels_total < 64
    report = run_resumable_batch(corpus.moduli, config);
    total_done += report.levels_done;
    if (run == 0) EXPECT_FALSE(report.resumed);
    if (report.complete) break;
    EXPECT_EQ(report.levels_done, 1u);
    EXPECT_TRUE(report.result.gcds.empty());
  }
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(total_done, report.levels_total);
  EXPECT_EQ(report.levels_restored + report.levels_done, report.levels_total);
  EXPECT_EQ(report.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, JournalBytesAndGcdsArePinned) {
  // The journal's bytes are a contract: a checkpoint written by one build
  // must resume under any other. 21 × 1024-bit leaves make promoted nodes
  // at three levels, an 8192 × 8192-bit product on Toom-3 and descent
  // divisions on Burnikel–Ziegler at 32- and 64-bit limbs. The run stops
  // mid-descent and resumes, so the pinned file is also a resumed one.
  rsa::CorpusSpec spec;
  spec.count = 21;
  spec.modulus_bits = 1024;
  spec.weak_pairs = 3;
  spec.seed = 218;
  spec.backend = rsa::CorpusBackend::kNative;
  const auto corpus = rsa::generate_corpus(spec);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 7;
  const BatchScanReport first = run_resumable_batch(corpus.moduli, config);
  ASSERT_FALSE(first.complete);
  config.stop_after_levels = 0;
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  ASSERT_TRUE(report.resumed);

  std::ifstream in(path_, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::uint64_t digest = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : bytes) {
    digest = (digest ^ std::uint8_t(c)) * 0x100000001b3ULL;
  }
  EXPECT_EQ(bytes.size(), 39867u);
  EXPECT_EQ(digest, 0xb31bb732c4363f56ULL);
  EXPECT_EQ(rsa::corpus_digest(report.result.gcds), 0xe669303080a0aa74ULL);
  EXPECT_EQ(weak_indices(report.result).size(), 6u);
}

TEST_F(BatchResumeTest, CompletedJournalReplaysWithoutRecompute) {
  const auto corpus = test_corpus(14, 2, 204);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport first = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(first.complete);

  const BatchScanReport replay = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(replay.complete);
  EXPECT_TRUE(replay.resumed);
  EXPECT_EQ(replay.levels_done, 0u);
  EXPECT_EQ(replay.levels_restored, replay.levels_total);
  EXPECT_EQ(replay.result.gcds, first.result.gcds);
}

TEST_F(BatchResumeTest, TornTailIsTruncatedAndRecomputed) {
  const auto corpus = test_corpus(16, 2, 205);
  const BatchGcdResult direct = batch_gcd(corpus.moduli);

  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 3;
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);

  // Simulate a crash mid-write: a partial record (a valid kind byte, then
  // garbage shorter than its own length fields claim) at the tail.
  const auto intact_size = std::filesystem::file_size(path_);
  {
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    out.put(char(1));  // product-record kind
    out.write("\x07\x00\x00\x00torn", 8);
  }
  ASSERT_GT(std::filesystem::file_size(path_), intact_size);

  config.stop_after_levels = 0;
  const BatchScanReport resumed = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.levels_restored, 3u);
  EXPECT_EQ(resumed.result.gcds, direct.gcds);
}

TEST_F(BatchResumeTest, JournalForADifferentCorpusIsRefused) {
  const auto corpus_a = test_corpus(12, 1, 206);
  const auto corpus_b = test_corpus(12, 1, 207);
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 2;
  ASSERT_FALSE(run_resumable_batch(corpus_a.moduli, config).complete);
  // Same count, different moduli: the digest must catch it.
  EXPECT_THROW(run_resumable_batch(corpus_b.moduli, config),
               std::runtime_error);
  // Different count too.
  const std::vector<BigInt> truncated(corpus_a.moduli.begin(),
                                      corpus_a.moduli.end() - 1);
  EXPECT_THROW(run_resumable_batch(truncated, config), std::runtime_error);
  // The original corpus still resumes fine.
  config.stop_after_levels = 0;
  EXPECT_TRUE(run_resumable_batch(corpus_a.moduli, config).complete);
}

TEST_F(BatchResumeTest, ForeignFileIsRefusedNotTruncated) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "definitely not a batch journal, long enough to pass the header";
  }
  const auto corpus = test_corpus(8, 1, 208);
  BatchScanConfig config;
  config.checkpoint = path_;
  EXPECT_THROW(run_resumable_batch(corpus.moduli, config), std::runtime_error);
  // Refusal must not have clobbered the file.
  EXPECT_GT(std::filesystem::file_size(path_), 0u);
}

TEST_F(BatchResumeTest, TornHeaderIsRecreatedFresh) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "BGCDBTR1\x01\x02";  // our magic, torn before the digest
  }
  const auto corpus = test_corpus(8, 1, 209);
  BatchScanConfig config;
  config.checkpoint = path_;
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  EXPECT_TRUE(report.complete);
  EXPECT_FALSE(report.resumed);
}

TEST_F(BatchResumeTest, LevelHookSeesEveryCommittedLevel) {
  const auto corpus = test_corpus(10, 1, 210);
  BatchScanConfig config;
  config.checkpoint = path_;
  std::vector<std::size_t> seen;
  std::size_t reported_total = 0;
  config.level_hook = [&](std::size_t done, std::size_t total) {
    seen.push_back(done);
    reported_total = total;
  };
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(report.complete);
  EXPECT_EQ(reported_total, report.levels_total);
  ASSERT_EQ(seen.size(), report.levels_total);
  for (std::size_t k = 0; k < seen.size(); ++k) EXPECT_EQ(seen[k], k + 1);
}

TEST_F(BatchResumeTest, MetricsCoverTheBatchPath) {
  const auto corpus = test_corpus(15, 2, 211);
  obs::MetricsRegistry registry;
  BatchScanConfig config;
  config.checkpoint = path_;
  config.stop_after_levels = 2;
  config.metrics = &registry;
  ASSERT_FALSE(run_resumable_batch(corpus.moduli, config).complete);
  config.stop_after_levels = 0;
  const BatchScanReport report = run_resumable_batch(corpus.moduli, config);
  ASSERT_TRUE(report.complete);

  const obs::Snapshot snap = registry.snapshot();
  auto counter = [&](std::string_view name) -> std::uint64_t {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    ADD_FAILURE() << "missing counter " << name;
    return 0;
  };
  // Both runs together commit every level exactly once; the second run also
  // restores the first run's two levels.
  EXPECT_EQ(counter("batchgcd_levels_committed_total"), report.levels_total);
  EXPECT_EQ(counter("batchgcd_levels_restored_total"), 2u);
  EXPECT_EQ(counter("batchgcd_gcds_total"), corpus.moduli.size());
  EXPECT_EQ(counter("batchgcd_weak_total"),
            weak_indices(report.result).size());
  EXPECT_GT(counter("batchgcd_product_nodes_total"), 0u);
  EXPECT_GT(counter("batchgcd_remainder_nodes_total"), 0u);
  bool found_gauge = false;
  for (const auto& g : snap.gauges) {
    if (g.name == "batchgcd_progress_ratio") {
      found_gauge = true;
      EXPECT_DOUBLE_EQ(g.value, 1.0);
    }
  }
  EXPECT_TRUE(found_gauge);
  bool found_hist = false;
  for (const auto& h : snap.histograms) {
    if (h.name == "batchgcd_level_seconds") {
      found_hist = true;
      EXPECT_EQ(h.count, report.levels_total);
    }
  }
  EXPECT_TRUE(found_hist);
}

TEST(BatchJournalTest, ReplayRoundTripsAllRecordKinds) {
  const auto tmp = std::filesystem::temp_directory_path() /
                   "bulkgcd_batch_journal_roundtrip";
  std::error_code ignored;
  std::filesystem::remove(tmp, ignored);

  const std::vector<BigInt> moduli = {BigInt(15), BigInt(21), BigInt(17 * 19)};
  const std::vector<BigInt64> level1 = {BigInt64(0x123456789abcULL),
                                        BigInt64(0)};
  const std::vector<BigInt64> residues = {BigInt64(7), BigInt64(11),
                                          BigInt64(13)};
  const std::vector<BigInt> gcds = {BigInt(1), BigInt(1), BigInt(17)};
  {
    BatchJournal journal(tmp, moduli);
    journal.append_product_level(1, level1);
    journal.append_remainder_level(1, residues);
    journal.append_remainder_level(0, residues);
    journal.append_gcds(gcds);
  }
  BatchJournal journal(tmp, moduli);
  BatchReplay replay = journal.take_replay();
  ASSERT_EQ(replay.product_levels.size(), 1u);
  EXPECT_EQ(replay.product_levels[0].first, 1u);
  EXPECT_EQ(replay.product_levels[0].second, level1);
  ASSERT_TRUE(replay.remainder.has_value());
  EXPECT_EQ(replay.remainder->first, 0u);  // deepest restored level wins
  EXPECT_EQ(replay.remainder->second, residues);
  ASSERT_TRUE(replay.gcds.has_value());
  EXPECT_EQ(*replay.gcds, gcds);
  std::filesystem::remove(tmp, ignored);
}

}  // namespace
}  // namespace bulkgcd::batchgcd
