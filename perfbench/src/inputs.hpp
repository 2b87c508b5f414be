// Seeded inputs of the benchmark and their ground truth.
//
// One corpus of kCorpusSize moduli of kModulusBits bits with kWeakPairs
// planted shared-prime pairs feeds every workload. The program under test
// only ever sees text: the corpus and the intake seed as keystore files, the
// intake stream as mixed keystore / PEM / raw-hex records with planted
// duplicates and malformed records. The truth file is read by the checker
// alone.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mp/bigint.hpp"

namespace perfbench {

inline constexpr std::size_t kCorpusSize = 2048;
inline constexpr std::size_t kModulusBits = 1024;
inline constexpr std::size_t kWeakPairs = 24;
/// The intake seed is corpus[0, kSeedSize); the stream carries the rest.
inline constexpr std::size_t kSeedSize = 1024;
inline constexpr std::size_t kDuplicates = 32;
inline constexpr std::size_t kMalformed = 32;

struct PlantedPair {
  std::size_t i = 0;  ///< corpus index, i < j
  std::size_t j = 0;
  bulkgcd::mp::BigInt prime;
};

/// What one record of the intake stream is, in stream order.
struct StreamRecord {
  enum class Kind { kKey, kDuplicate, kMalformed };
  Kind kind = Kind::kKey;
  std::size_t key = 0;  ///< corpus index of the key (kKey, kDuplicate)
};

struct Truth {
  std::vector<PlantedPair> pairs;
  std::vector<StreamRecord> records;
};

/// File names inside one seed's input directory.
struct InputFiles {
  std::filesystem::path dir;
  std::filesystem::path corpus() const { return dir / "corpus.keys"; }
  std::filesystem::path seed() const { return dir / "seed.keys"; }
  std::filesystem::path stream() const { return dir / "stream.txt"; }
  std::filesystem::path truth() const { return dir / "truth.txt"; }
};

/// Generate every input file for `seed` into files.dir (which must exist).
/// Deterministic: the same seed gives byte-identical files on one machine.
void generate_inputs(std::uint64_t seed, const InputFiles& files);

/// Read the ground truth written by generate_inputs. Throws on a malformed
/// file.
Truth load_truth(const InputFiles& files);

std::string read_text(const std::filesystem::path& path);

}  // namespace perfbench
