// core::RecordLog tests — the framing shared by the scan checkpoint, the
// intake arrival journal and the batch-tree journal — plus the crash-point
// suite over all three schemas: a journal of each kind is truncated at every
// byte offset (the resume must be bit-identical to an uninterrupted run) and
// has every byte flipped (the resume must complete or refuse with
// std::runtime_error, and never allocate far beyond the file's size).
//
// This binary replaces the global operator new with a guard that, while
// armed, refuses any single allocation above a limit: a damaged length field
// that drove an allocation shows up as a refused allocation, never as an
// out-of-memory kill.
#include "core/record_log.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "batchgcd/batchgcd.hpp"
#include "bulk/scan_driver.hpp"
#include "obs/metrics.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "svc/arrival_journal.hpp"
#include "svc/intake_service.hpp"

// ---- allocation guard -------------------------------------------------------

namespace {
std::atomic<std::size_t> g_alloc_limit{0};  // 0 = unarmed
std::atomic<bool> g_alloc_refused{false};

void* guarded_alloc(std::size_t n) {
  const std::size_t limit = g_alloc_limit.load(std::memory_order_relaxed);
  if (limit != 0 && n > limit) {
    g_alloc_refused.store(true);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return guarded_alloc(n); }
void* operator new[](std::size_t n) { return guarded_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace bulkgcd::core {
namespace {

using mp::BigInt;

/// Refuses every single allocation above `limit` bytes while in scope.
class AllocationLimit {
 public:
  explicit AllocationLimit(std::size_t limit) {
    g_alloc_refused.store(false);
    g_alloc_limit.store(limit);
  }
  ~AllocationLimit() { g_alloc_limit.store(0); }
  AllocationLimit(const AllocationLimit&) = delete;
  AllocationLimit& operator=(const AllocationLimit&) = delete;
  bool refused() const { return g_alloc_refused.load(); }
};

/// Per-allocation bound for resuming a damaged journal of `file_size` bytes:
/// the run's own small buffers, plus a few times the file (a count the file
/// could hold still costs up to ~6× its encoded size in memory: a 24-byte
/// BigInt per 4-byte limb count).
std::size_t damaged_resume_limit(std::size_t file_size) {
  return (std::size_t(1) << 18) + 8 * file_size;
}

/// The crash-point suite reopens thousands of journals, and every reopen
/// fsyncs; on a tmpfs (/dev/shm) that costs nothing, so the suite's run time
/// does not depend on the disk.
std::filesystem::path temp_path(const std::string& tag) {
  std::error_code ec;
  const std::filesystem::path dir =
      std::filesystem::is_directory("/dev/shm", ec)
          ? std::filesystem::path("/dev/shm")
          : std::filesystem::temp_directory_path();
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  return dir / (std::string("bulkgcd_record_log_") + test->test_suite_name() +
                "_" + test->name() + "_" + tag);
}

/// Removes the files a test wrote, on every exit path.
struct TempFiles {
  std::vector<std::filesystem::path> paths;
  std::filesystem::path add(const std::string& tag) {
    paths.push_back(temp_path(tag));
    std::error_code ignored;
    std::filesystem::remove(paths.back(), ignored);
    return paths.back();
  }
  ~TempFiles() {
    std::error_code ignored;
    for (const auto& p : paths) std::filesystem::remove(p, ignored);
  }
};

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::filesystem::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), std::streamsize(bytes.size()));
}

rsa::WeakCorpus test_corpus(std::size_t count, std::size_t weak,
                            std::uint64_t seed) {
  rsa::CorpusSpec spec;
  spec.count = count;
  spec.modulus_bits = 128;
  spec.weak_pairs = weak;
  spec.seed = seed;
  return rsa::generate_corpus(spec);
}

// ---- a toy schema: magic "TESTLOG1" + u64 id; records = kind 7 + str ------

constexpr char kTestMagic[8] = {'T', 'E', 'S', 'T', 'L', 'O', 'G', '1'};

struct TestLog {
  std::uint64_t id = 1;
  std::vector<std::string> records;

  LogSchema schema() {
    RecordWriter header({kTestMagic, sizeof(kTestMagic)});
    header.u64(id);
    return {
        .name = "test log",
        .header = header.bytes(),
        .check_identity =
            [this](Cursor& c) -> std::string {
              std::uint64_t got = 0;
              c.u64(got);
              return got == id ? "" : "different id";
            },
        .parse_record =
            [this](Cursor& c) {
              std::uint8_t kind = 0;
              std::string s;
              if (!c.u8(kind) || kind != 7 || !c.str(s)) return false;
              records.push_back(std::move(s));
              return true;
            },
    };
  }
};

std::string test_record(std::string_view payload) {
  RecordWriter out;
  out.u8(7);
  out.str(payload);
  return out.bytes();
}

constexpr std::size_t kTestHeaderSize = 8 + 8;

// ---- RecordWriter / Cursor --------------------------------------------------

TEST(RecordLogTest, WriterAndCursorRoundTripEveryEncoding) {
  const BigInt big = BigInt::from_hex("1234567890abcdef0123456789");
  RecordWriter out;
  out.u8(0xab);
  out.u32(0xdeadbeef);
  out.u64(0x0102030405060708ULL);
  out.str("hello");
  out.bigint_limbs(big);
  out.bigint_limbs(BigInt(0));
  out.bigint_bytes(big);
  out.bigint_bytes(BigInt(0));
  // Little-endian on disk, whatever the host.
  EXPECT_EQ(out.bytes().substr(1, 4), std::string("\xef\xbe\xad\xde", 4));
  // Canonical bytes: exactly ceil(bits / 8) of them (13 for 100 bits).
  EXPECT_EQ(out.bytes().size(),
            1 + 4 + 8 + (4 + 5) + (4 + 4 * 4) + 4 + (4 + 13) + 4);

  Cursor c(out.bytes());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t d = 0;
  std::string s;
  BigInt v1, v2, v3, v4;
  ASSERT_TRUE(c.u8(a) && c.u32(b) && c.u64(d) && c.str(s));
  ASSERT_TRUE(c.bigint_limbs(v1) && c.bigint_limbs(v2));
  ASSERT_TRUE(c.bigint_bytes(v3) && c.bigint_bytes(v4));
  EXPECT_EQ(a, 0xab);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(d, 0x0102030405060708ULL);
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(v1, big);
  EXPECT_EQ(v2, BigInt(0));
  EXPECT_EQ(v3, big);
  EXPECT_EQ(v4, BigInt(0));
  EXPECT_TRUE(c.done());
  EXPECT_FALSE(c.u8(a)) << "reads past the end fail";
}

TEST(RecordLogTest, LimbEncodingIsTheSameFromEveryLimbWidth) {
  // The batch tree journals its 64-bit levels straight from their limbs:
  // the bytes must be the 32-bit encoding, an odd 32-bit word count
  // included, and read back into either width.
  for (const char* hex : {"0", "1", "ffffffff", "100000000",
                          "1234567890abcdef0123456789",
                          "fedcba9876543210fedcba9876543210"}) {
    const BigInt narrow = BigInt::from_hex(hex);
    const auto wide = mp::repack<std::uint64_t>(narrow);
    RecordWriter from32, from64;
    from32.bigint_limbs(narrow);
    from64.bigint_limbs(wide);
    EXPECT_EQ(from64.bytes(), from32.bytes()) << hex;
    EXPECT_EQ(from32.bytes().size(), 4 + 4 * narrow.size()) << hex;

    mp::BigInt64 back64;
    BigInt back32;
    Cursor c64(from32.bytes()), c32(from64.bytes());
    ASSERT_TRUE(c64.bigint_limbs(back64) && c32.bigint_limbs(back32)) << hex;
    EXPECT_EQ(back64, wide) << hex;
    EXPECT_EQ(back32, narrow) << hex;
    EXPECT_TRUE(c64.done() && c32.done()) << hex;
  }
}

TEST(RecordLogTest, CountsTheBytesLeftCannotHoldAreRefused) {
  RecordWriter out;
  out.u32(3);  // three 4-byte elements follow: fits exactly
  out.u64(0);
  out.u32(0);
  Cursor fits(out.bytes());
  std::uint64_t n = 0;
  ASSERT_TRUE(fits.count32(n, 4));
  EXPECT_EQ(n, 3u);

  RecordWriter huge;
  huge.u32(0x40000000);
  huge.u64(0);
  Cursor c32(huge.bytes());
  EXPECT_FALSE(c32.count32(n, 1));

  RecordWriter huge64;
  huge64.u64(~std::uint64_t(0));
  huge64.u32(0);
  Cursor c64(huge64.bytes());
  EXPECT_FALSE(c64.count64(n, 4));

  // A BigInt whose limb count runs past the end is torn, not allocated.
  AllocationLimit limit(1 << 16);
  BigInt v;
  Cursor limbs(huge.bytes());
  EXPECT_FALSE(limbs.bigint_limbs(v));
  Cursor bytes(huge.bytes());
  EXPECT_FALSE(bytes.bigint_bytes(v));
  EXPECT_FALSE(limit.refused());
}

// ---- open: create, recreate, refuse, resume ---------------------------------

TEST(RecordLogTest, FreshLogHoldsHeaderAndRecordsReadBack) {
  TempFiles files;
  const auto path = files.add("log");
  {
    TestLog t;
    RecordLog log(path, t.schema());
    EXPECT_EQ(log.good_offset(), kTestHeaderSize);
    log.append(test_record("one"));
    log.append(test_record("two"));
  }
  EXPECT_EQ(slurp(path).size(), kTestHeaderSize + 2 * (1 + 4 + 3));
  TestLog t;
  RecordLog log(path, t.schema());
  EXPECT_EQ(t.records, (std::vector<std::string>{"one", "two"}));
  EXPECT_EQ(log.good_offset(), slurp(path).size());
}

TEST(RecordLogTest, TornHeaderThatIsAMagicPrefixIsRecreated) {
  TempFiles files;
  const auto path = files.add("log");
  TestLog t;
  const std::string header = t.schema().header;
  for (std::size_t len = 0; len < header.size(); ++len) {
    spit(path, header.substr(0, len));
    {
      RecordLog log(path, t.schema());
      EXPECT_EQ(log.good_offset(), header.size());
    }
    EXPECT_EQ(slurp(path), header) << "torn at " << len;
  }
  EXPECT_TRUE(t.records.empty());
}

TEST(RecordLogTest, ForeignAndMismatchedFilesAreRefusedAndLeftIntact) {
  TempFiles files;
  const auto path = files.add("log");
  const std::string foreign[] = {
      "XY",                                      // short, not a magic prefix
      "TESTLOGX and then some more bytes",       // another magic
      "not a log at all, long enough to pass",   // plainly foreign
  };
  for (const auto& bytes : foreign) {
    spit(path, bytes);
    TestLog t;
    EXPECT_THROW(RecordLog(path, t.schema()), std::runtime_error) << bytes;
    EXPECT_EQ(slurp(path), bytes) << "a refusal never touches the file";
  }

  {
    TestLog writer;
    writer.id = 41;
    std::filesystem::remove(path);
    RecordLog log(path, writer.schema());
    log.append(test_record("kept"));
  }
  const std::string written = slurp(path);
  TestLog other;
  other.id = 42;
  try {
    RecordLog log(path, other.schema());
    ADD_FAILURE() << "identity mismatch must be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("different id"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(slurp(path), written);

  // Asked to, the log replaces a mismatched or foreign file instead.
  {
    RecordLog log(path, other.schema(), 1, nullptr, nullptr,
                  /*replace_mismatched=*/true);
  }
  EXPECT_EQ(slurp(path), other.schema().header);
  EXPECT_TRUE(other.records.empty());
  spit(path, foreign[1]);
  { RecordLog log(path, other.schema(), 1, nullptr, nullptr, true); }
  EXPECT_EQ(slurp(path), other.schema().header);
}

TEST(RecordLogTest, TornTailIsTruncatedAndAppendsContinueThere) {
  TempFiles files;
  const auto path = files.add("log");
  {
    TestLog t;
    RecordLog log(path, t.schema());
    log.append(test_record("alpha"));
    log.append(test_record("beta"));
  }
  const std::string whole = slurp(path);
  const std::size_t first_end = kTestHeaderSize + 1 + 4 + 5;
  for (std::size_t cut = kTestHeaderSize; cut < whole.size(); ++cut) {
    spit(path, whole.substr(0, cut));  // a crash tore the write at `cut`
    TestLog t;
    {
      RecordLog log(path, t.schema());
      const std::size_t keep = cut < first_end ? kTestHeaderSize : first_end;
      EXPECT_EQ(log.good_offset(), keep) << "cut " << cut;
      EXPECT_EQ(slurp(path).size(), keep) << "tail truncated before appends";
      log.append(test_record("gamma"));
    }
    TestLog reread;
    RecordLog log(path, reread.schema());
    EXPECT_EQ(reread.records.back(), "gamma");
    EXPECT_EQ(reread.records.size(), cut < first_end ? 1u : 2u);
  }
}

TEST(RecordLogTest, FsyncCadenceAndExplicitSyncAreObserved) {
  TempFiles files;
  const auto path = files.add("log");
  obs::MetricsRegistry registry;
  auto* hist = registry.histogram("test_fsync_seconds", 0.0, 0.1, 10);
  TestLog t;
  RecordLog log(path, t.schema(), /*fsync_every=*/3, hist);
  EXPECT_EQ(hist->count(), 1u) << "the fresh header is made durable";
  for (int k = 0; k < 7; ++k) log.append(test_record("r"));
  EXPECT_EQ(hist->count(), 1u + 2u) << "every third append syncs";
  log.append(test_record("done"), /*durable=*/true);
  EXPECT_EQ(hist->count(), 4u);
  log.sync();
  EXPECT_EQ(hist->count(), 5u);
}

TEST(RecordLogTest, ConcurrentAppendsNeverInterleave) {
  // The arrival journal's shape: an admission gate and a probe worker (here
  // four writers) append concurrently. Every record must read back whole,
  // and each writer's records in its own order.
  TempFiles files;
  const auto path = files.add("log");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 200;
  {
    TestLog t;
    RecordLog log(path, t.schema(), /*fsync_every=*/64);
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&log, w] {
        for (int k = 0; k < kPerWriter; ++k) {
          // Lengths vary so a torn or interleaved write cannot line up.
          const std::string payload =
              std::to_string(w) + ":" + std::to_string(k) + ":" +
              std::string(std::size_t(k % 37), char('a' + w));
          log.append(test_record(payload));
        }
      });
    }
    for (auto& thread : writers) thread.join();
  }
  TestLog t;
  RecordLog log(path, t.schema());
  ASSERT_EQ(t.records.size(), std::size_t(kWriters * kPerWriter));
  EXPECT_EQ(log.good_offset(), slurp(path).size());
  std::vector<int> next(kWriters, 0);
  for (const auto& r : t.records) {
    const int w = std::stoi(r.substr(0, r.find(':')));
    ASSERT_GE(w, 0);
    ASSERT_LT(w, kWriters);
    const std::string expect =
        std::to_string(w) + ":" + std::to_string(next[w]) + ":" +
        std::string(std::size_t(next[w] % 37), char('a' + w));
    EXPECT_EQ(r, expect);
    ++next[w];
  }
}

/// `bytes` with one bit flipped in the middle of the last place `encoded`
/// (a value's journal encoding: a u32 length, then its bytes) occurs. The
/// record still parses; only the value changes.
std::string flip_inside_last(std::string bytes, const std::string& encoded) {
  const std::size_t at = bytes.rfind(encoded);
  EXPECT_NE(at, std::string::npos);
  if (at == std::string::npos) return bytes;
  const std::size_t mid = at + 4 + (encoded.size() - 4) / 2;
  bytes[mid] = char(bytes[mid] ^ 0x10);
  return bytes;
}

// ---- crash points: scan checkpoint ------------------------------------------

class ScanCrashPoints : public ::testing::Test {
 protected:
  ScanCrashPoints() : corpus_(test_corpus(12, 2, 1601)) {
    config_.pairs.group_size = 4;
    config_.pairs.pool_threads = 1;
    config_.chunk_blocks = 2;
    config_.fsync_every = 1024;  // the final sync still makes it durable
    // Chunk 1 always fails: the journal carries a quarantine record too.
    config_.chunk_hook = [](std::size_t chunk, int) {
      if (chunk == 1) throw std::runtime_error("poisoned chunk");
    };
    config_.checkpoint = files_.add("ref");
    reference_ = bulk::run_resumable_scan(corpus_.moduli, config_);
    journal_ = slurp(config_.checkpoint);
    config_.checkpoint = files_.add("damaged");
  }

  bulk::ScanReport resume(const std::string& bytes) {
    spit(config_.checkpoint, bytes);
    return bulk::run_resumable_scan(corpus_.moduli, config_);
  }

  TempFiles files_;
  rsa::WeakCorpus corpus_;
  bulk::ScanConfig config_;
  bulk::ScanReport reference_;
  std::string journal_;
};

void expect_same_scan(const bulk::ScanReport& got, const bulk::ScanReport& want,
                      std::size_t cut) {
  ASSERT_TRUE(got.complete) << "cut " << cut;
  const auto& a = got.result;
  const auto& b = want.result;
  EXPECT_EQ(a.pairs_tested, b.pairs_tested) << "cut " << cut;
  EXPECT_EQ(a.blocks_run, b.blocks_run) << "cut " << cut;
  EXPECT_TRUE(a.simt == b.simt) << "cut " << cut;
  EXPECT_TRUE(a.scalar == b.scalar) << "cut " << cut;
  ASSERT_EQ(a.hits.size(), b.hits.size()) << "cut " << cut;
  for (std::size_t k = 0; k < a.hits.size(); ++k) {
    EXPECT_EQ(a.hits[k].i, b.hits[k].i);
    EXPECT_EQ(a.hits[k].j, b.hits[k].j);
    EXPECT_EQ(a.hits[k].factor, b.hits[k].factor);
    EXPECT_EQ(a.hits[k].full_modulus, b.hits[k].full_modulus);
  }
  ASSERT_EQ(got.quarantined.size(), want.quarantined.size()) << "cut " << cut;
  for (std::size_t k = 0; k < got.quarantined.size(); ++k) {
    EXPECT_EQ(got.quarantined[k].chunk_index, want.quarantined[k].chunk_index);
    EXPECT_EQ(got.quarantined[k].error, want.quarantined[k].error);
  }
}

TEST_F(ScanCrashPoints, TruncatedAtEveryOffsetResumesBitIdentical) {
  ASSERT_TRUE(reference_.complete);
  ASSERT_EQ(reference_.quarantined.size(), 1u);
  ASSERT_EQ(reference_.result.hits.size(), 2u);
  for (std::size_t cut = 0; cut <= journal_.size(); ++cut) {
    expect_same_scan(resume(journal_.substr(0, cut)), reference_, cut);
  }
}

TEST_F(ScanCrashPoints, EveryByteFlippedResumesOrRefuses) {
  for (std::size_t at = 0; at < journal_.size(); ++at) {
    std::string bytes = journal_;
    bytes[at] = char(bytes[at] ^ 0xff);
    AllocationLimit limit(damaged_resume_limit(bytes.size()));
    try {
      EXPECT_TRUE(resume(bytes).complete) << "flip at " << at;
    } catch (const std::runtime_error&) {
      // A clean refusal (foreign magic or identity mismatch).
    }
    EXPECT_FALSE(limit.refused()) << "flip at " << at;
  }
}

TEST_F(ScanCrashPoints, DamagedHitFactorIsRecomputedNotTrusted) {
  // A hit factor that no longer divides its moduli is damage: its chunk
  // record and the tail after it are dropped and recomputed.
  ASSERT_FALSE(reference_.result.hits.empty());
  RecordWriter factor;
  factor.bigint_limbs(reference_.result.hits.front().factor);
  const std::string bytes = flip_inside_last(journal_, factor.bytes());
  ASSERT_NE(bytes, journal_);
  expect_same_scan(resume(bytes), reference_, 0);
}

TEST_F(ScanCrashPoints, HugeHitCountIsATornTailNotAnAllocation) {
  // A chunk record whose hit count claims 2^30 hits: the bytes left cannot
  // hold them, so the record is a torn tail, dropped and recomputed.
  config_.chunk_hook = {};
  config_.stop_after_chunks = 1;
  const std::string path = config_.checkpoint.string();
  std::filesystem::remove(path);
  ASSERT_FALSE(bulk::run_resumable_scan(corpus_.moduli, config_).complete);
  const std::size_t intact = slurp(path).size();
  RecordWriter bad;
  bad.u8(1);   // chunk record
  bad.u64(2);  // chunk index
  for (int k = 0; k < 1 + 19 + 12; ++k) bad.u64(0);  // pairs + two stats
  bad.u32(0x40000000);                              // hit count
  ASSERT_EQ(bad.bytes().size(), 269u);
  spit(path, slurp(path) + bad.bytes());

  config_.stop_after_chunks = 0;
  bulk::ScanReport resumed;
  {
    AllocationLimit limit(damaged_resume_limit(intact + 269));
    resumed = bulk::run_resumable_scan(corpus_.moduli, config_);
    EXPECT_FALSE(limit.refused());
  }
  EXPECT_TRUE(resumed.complete);
  EXPECT_TRUE(resumed.resumed);
  const auto direct = bulk::all_pairs_gcd(corpus_.moduli, config_.pairs);
  ASSERT_EQ(resumed.result.hits.size(), direct.hits.size());
  for (std::size_t k = 0; k < direct.hits.size(); ++k) {
    EXPECT_EQ(resumed.result.hits[k].factor, direct.hits[k].factor);
  }
  EXPECT_EQ(resumed.result.pairs_tested, direct.pairs_tested);
}

// ---- crash points: arrival journal ------------------------------------------

class ArrivalCrashPoints : public ::testing::Test {
 protected:
  ArrivalCrashPoints() : corpus_(test_corpus(9, 2, 1602)) {
    seed_.assign(corpus_.moduli.begin(), corpus_.moduli.begin() + 2);
    const auto path = files_.add("ref");
    {
      // One key at a time, each probed before the next is submitted, so the
      // journal alternates arrival and probed records.
      svc::IntakeService service(seed_, config(path));
      for (std::size_t k = 2; k + 1 < corpus_.moduli.size(); ++k) {
        const auto want = service.stats().probed + 1;
        EXPECT_EQ(service.submit(corpus_.moduli[k]), svc::Admission::kAdmitted);
        while (service.stats().probed < want) std::this_thread::yield();
      }
      service.stop();
    }
    {
      // A shed key: the gate journals it, then retracts it.
      svc::ArrivalJournal journal(path, std::span<const BigInt>(seed_));
      const std::uint64_t seq = journal.take_replay().arrivals.size();
      journal.append_arrival(seq, corpus_.moduli.back());
      journal.append_retract(seq);
    }
    journal_ = slurp(path);
    damaged_ = files_.add("damaged");
    reference_ = resume(journal_);
  }

  svc::IntakeServiceConfig config(const std::filesystem::path& path) const {
    svc::IntakeServiceConfig c;
    c.probe.pool_threads = 1;
    c.probe.group_size = 4;
    c.journal_path = path;
    c.journal_fsync_every = 1024;
    return c;
  }

  struct Outcome {
    std::vector<BigInt> corpus;
    std::vector<bulk::FactorHit> hits;
  };

  /// Restart on `bytes`, then stream every key again (replayed keys dedup).
  Outcome resume(const std::string& bytes) {
    spit(damaged_, bytes);
    svc::IntakeService service(seed_, config(damaged_));
    for (std::size_t k = 2; k < corpus_.moduli.size(); ++k) {
      service.submit(corpus_.moduli[k]);
    }
    service.stop();
    Outcome out{service.corpus(), service.hits()};
    std::sort(out.hits.begin(), out.hits.end(),
              [](const bulk::FactorHit& a, const bulk::FactorHit& b) {
                return std::pair(a.i, a.j) < std::pair(b.i, b.j);
              });
    return out;
  }

  TempFiles files_;
  rsa::WeakCorpus corpus_;
  std::vector<BigInt> seed_;
  std::string journal_;
  std::filesystem::path damaged_;
  Outcome reference_;
};

TEST_F(ArrivalCrashPoints, TruncatedAtEveryOffsetResumesBitIdentical) {
  // The reference is the one-shot corpus in stream order and its hit set.
  ASSERT_EQ(reference_.corpus, corpus_.moduli);
  const auto oneshot = bulk::all_pairs_gcd(corpus_.moduli).hits;
  ASSERT_EQ(reference_.hits.size(), oneshot.size());
  ASSERT_FALSE(oneshot.empty());
  for (std::size_t cut = 0; cut <= journal_.size(); ++cut) {
    const Outcome got = resume(journal_.substr(0, cut));
    ASSERT_EQ(got.corpus, reference_.corpus) << "cut " << cut;
    ASSERT_EQ(got.hits.size(), reference_.hits.size()) << "cut " << cut;
    for (std::size_t k = 0; k < got.hits.size(); ++k) {
      EXPECT_EQ(got.hits[k].i, reference_.hits[k].i) << "cut " << cut;
      EXPECT_EQ(got.hits[k].j, reference_.hits[k].j) << "cut " << cut;
      EXPECT_EQ(got.hits[k].factor, reference_.hits[k].factor) << "cut " << cut;
      EXPECT_EQ(got.hits[k].full_modulus, reference_.hits[k].full_modulus);
    }
  }
}

TEST_F(ArrivalCrashPoints, EveryByteFlippedResumesOrRefuses) {
  for (std::size_t at = 0; at < journal_.size(); ++at) {
    std::string bytes = journal_;
    bytes[at] = char(bytes[at] ^ 0xff);
    AllocationLimit limit(damaged_resume_limit(bytes.size()));
    try {
      resume(bytes);
    } catch (const std::runtime_error&) {
      // A clean refusal (foreign magic or identity mismatch).
    }
    EXPECT_FALSE(limit.refused()) << "flip at " << at;
  }
}

TEST_F(ArrivalCrashPoints, DamagedProbedFactorIsReprobedNotTrusted) {
  // The journaled hits are those of arrivals (j past the seed).
  const auto hit = std::find_if(
      reference_.hits.begin(), reference_.hits.end(),
      [&](const bulk::FactorHit& h) { return h.j >= seed_.size(); });
  ASSERT_NE(hit, reference_.hits.end());
  RecordWriter factor;
  factor.bigint_bytes(hit->factor);
  const std::string bytes = flip_inside_last(journal_, factor.bytes());
  ASSERT_NE(bytes, journal_);
  const Outcome got = resume(bytes);
  EXPECT_EQ(got.corpus, reference_.corpus);
  ASSERT_EQ(got.hits.size(), reference_.hits.size());
  for (std::size_t k = 0; k < got.hits.size(); ++k) {
    EXPECT_EQ(got.hits[k].i, reference_.hits[k].i);
    EXPECT_EQ(got.hits[k].j, reference_.hits[k].j);
    EXPECT_EQ(got.hits[k].factor, reference_.hits[k].factor);
    EXPECT_EQ(got.hits[k].full_modulus, reference_.hits[k].full_modulus);
  }
}

TEST_F(ArrivalCrashPoints, HugeHitCountIsATornTailNotAnAllocation) {
  // A probed record for the next arrival claiming 2^30 hits.
  const std::size_t arrivals = reference_.corpus.size() - seed_.size();
  std::string bytes = journal_;
  RecordWriter arrival;
  arrival.u8(1);
  arrival.u64(arrivals - 1);  // the last key: its arrival record is retracted
  arrival.bigint_bytes(corpus_.moduli.back());
  RecordWriter probed;
  probed.u8(2);
  probed.u64(arrivals - 1);
  probed.u32(0x40000000);
  bytes += arrival.bytes() + probed.bytes();
  Outcome got;
  {
    AllocationLimit limit(damaged_resume_limit(bytes.size()));
    got = resume(bytes);
    EXPECT_FALSE(limit.refused());
  }
  EXPECT_EQ(got.corpus, reference_.corpus);
  ASSERT_EQ(got.hits.size(), reference_.hits.size());
}

// ---- crash points: batch-tree journal ---------------------------------------

class TreeCrashPoints : public ::testing::Test {
 protected:
  TreeCrashPoints() : corpus_(test_corpus(4, 1, 1603)) {
    config_.fsync_every = 1024;  // the gcds record is synced regardless
    config_.checkpoint = files_.add("ref");
    reference_ = batchgcd::run_resumable_batch(corpus_.moduli, config_);
    journal_ = slurp(config_.checkpoint);
    config_.checkpoint = files_.add("damaged");
  }

  batchgcd::BatchScanReport resume(const std::string& bytes) {
    spit(config_.checkpoint, bytes);
    return batchgcd::run_resumable_batch(corpus_.moduli, config_);
  }

  TempFiles files_;
  rsa::WeakCorpus corpus_;
  batchgcd::BatchScanConfig config_;
  batchgcd::BatchScanReport reference_;
  std::string journal_;
};

TEST_F(TreeCrashPoints, TruncatedAtEveryOffsetResumesBitIdentical) {
  ASSERT_TRUE(reference_.complete);
  ASSERT_EQ(reference_.result.gcds, batchgcd::batch_gcd(corpus_.moduli).gcds);
  for (std::size_t cut = 0; cut <= journal_.size(); ++cut) {
    const auto got = resume(journal_.substr(0, cut));
    ASSERT_TRUE(got.complete) << "cut " << cut;
    EXPECT_EQ(got.result.gcds, reference_.result.gcds) << "cut " << cut;
  }
}

TEST_F(TreeCrashPoints, EveryByteFlippedResumesOrRefuses) {
  for (std::size_t at = 0; at < journal_.size(); ++at) {
    std::string bytes = journal_;
    bytes[at] = char(bytes[at] ^ 0xff);
    AllocationLimit limit(damaged_resume_limit(bytes.size()));
    try {
      EXPECT_TRUE(resume(bytes).complete) << "flip at " << at;
    } catch (const std::runtime_error&) {
      // A clean refusal: foreign magic, identity or level-shape mismatch.
    }
    EXPECT_FALSE(limit.refused()) << "flip at " << at;
  }
}

TEST_F(TreeCrashPoints, DamagedGcdIsRecomputedNotTrusted) {
  // The gcds record is last; its shared prime no longer divides the modulus.
  const auto weak = batchgcd::weak_indices(reference_.result);
  ASSERT_FALSE(weak.empty());
  RecordWriter gcd;
  gcd.bigint_limbs(reference_.result.gcds[weak.front()]);
  const std::string bytes = flip_inside_last(journal_, gcd.bytes());
  ASSERT_NE(bytes, journal_);
  const auto got = resume(bytes);
  ASSERT_TRUE(got.complete);
  EXPECT_EQ(got.result.gcds, reference_.result.gcds);
}

TEST_F(TreeCrashPoints, HugeValueCountIsATornTailNotAnAllocation) {
  RecordWriter bad;
  bad.u8(1);  // product level 1, claiming 2^62 nodes
  bad.u32(1);
  bad.u64(std::uint64_t(1) << 62);
  const std::string header = journal_.substr(0, 8 + 2 * 8);
  batchgcd::BatchScanReport got;
  {
    AllocationLimit limit(damaged_resume_limit(header.size() + 13));
    got = resume(header + bad.bytes());
    EXPECT_FALSE(limit.refused());
  }
  EXPECT_TRUE(got.complete);
  EXPECT_EQ(got.result.gcds, reference_.result.gcds);
}

}  // namespace
}  // namespace bulkgcd::core
