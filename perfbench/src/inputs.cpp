#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/rng.hpp"
#include "rsa/corpus.hpp"
#include "rsa/keystore.hpp"
#include "rsa/pem.hpp"

namespace perfbench {

namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::mp::BigInt;
namespace rsa = bulkgcd::rsa;

std::string even_hex(const BigInt& n) {
  std::string hex = n.to_hex();
  if (hex.size() % 2) hex.insert(hex.begin(), '0');
  return hex;
}

std::string upper(std::string s) {
  for (char& c : s) c = char(std::toupper(static_cast<unsigned char>(c)));
  return s;
}

/// One well-formed record for `n`, in one of the wire formats an intake
/// feed mixes.
std::string key_record(const BigInt& n, Xoshiro256& rng) {
  const rsa::PublicKey key{n, BigInt(65537)};
  switch (rng.below(5)) {
    case 0: return "modulus " + even_hex(n) + "\n";
    case 1: return rsa::pem_encode_public_key(key, rsa::PemKind::kPkcs1);
    case 2: return rsa::pem_encode_public_key(key, rsa::PemKind::kSpki);
    case 3: return even_hex(n) + "\n";
    default: return "Modulus=" + upper(even_hex(n)) + "\n";
  }
}

/// One record the parser must reject as a whole and then carry on.
std::string malformed_record(const BigInt& n, Xoshiro256& rng) {
  const std::string hex = even_hex(n);
  switch (rng.below(5)) {
    case 0: return hex.substr(1) + "\n";                 // odd digit count
    case 1: return hex.substr(0, 40) + "zz" + hex.substr(42) + "\n";
    case 2: return "modulus 0xnot-a-number\n";
    case 3:
      return "-----BEGIN RSA PUBLIC KEY-----\n!!!! not base64 !!!!\n"
             "-----END RSA PUBLIC KEY-----\n";
    default: {
      auto der = rsa::der_encode_public_key({n, BigInt(65537)});
      der.resize(der.size() / 2);  // truncated DER inside valid base64
      return "-----BEGIN RSA PUBLIC KEY-----\n" + rsa::base64_encode(der) +
             "\n-----END RSA PUBLIC KEY-----\n";
    }
  }
}

}  // namespace

void generate_inputs(std::uint64_t seed, const InputFiles& files) {
  rsa::CorpusSpec spec;
  spec.count = kCorpusSize;
  spec.modulus_bits = kModulusBits;
  spec.weak_pairs = kWeakPairs;
  spec.seed = seed;
  // Both backends draw the same distribution; GMP only makes the one-time
  // prime search fast. No GMP code runs in any measured path.
  spec.backend = rsa::gmp_backend_available() ? rsa::CorpusBackend::kGmp
                                              : rsa::CorpusBackend::kNative;
  const rsa::WeakCorpus corpus = rsa::generate_corpus(spec);

  rsa::save_moduli(files.corpus(), corpus.moduli, "perfbench corpus");
  rsa::save_moduli(files.seed(),
                   {corpus.moduli.begin(), corpus.moduli.begin() + kSeedSize},
                   "perfbench intake seed");

  // Stream: the keys after the seed in corpus order, with duplicates and
  // malformed records dropped in after random keys. A duplicate repeats a
  // seed key or a stream key already sent, in a freshly drawn format.
  Xoshiro256 rng(seed ^ 0x5eed'57e4'0000'0001ULL);
  std::vector<std::pair<std::size_t, bool>> extras;  // (after key t, is dup)
  for (std::size_t k = 0; k < kDuplicates + kMalformed; ++k) {
    extras.emplace_back(rng.below(kCorpusSize - kSeedSize), k < kDuplicates);
  }
  std::sort(extras.begin(), extras.end());

  std::ofstream stream(files.stream(), std::ios::binary);
  std::ofstream truth(files.truth(), std::ios::binary);
  stream << "# perfbench intake stream, seed " << seed << "\n\n";
  for (const auto& w : corpus.weak) {
    const auto [i, j] = std::minmax(w.first, w.second);
    truth << "pair " << i << " " << j << " " << w.shared_prime.to_hex() << "\n";
  }
  auto next_extra = extras.begin();
  for (std::size_t t = 0; t < kCorpusSize - kSeedSize; ++t) {
    const std::size_t key = kSeedSize + t;
    stream << key_record(corpus.moduli[key], rng);
    truth << "record key " << key << "\n";
    for (; next_extra != extras.end() && next_extra->first == t; ++next_extra) {
      if (next_extra->second) {
        const std::size_t original = rng.below(key + 1);
        stream << key_record(corpus.moduli[original], rng);
        truth << "record dup " << original << "\n";
      } else {
        stream << malformed_record(corpus.moduli[rng.below(kCorpusSize)], rng);
        truth << "record bad 0\n";
      }
    }
  }
  if (!stream.flush() || !truth.flush()) {
    throw std::runtime_error("cannot write inputs under " + files.dir.string());
  }
}

Truth load_truth(const InputFiles& files) {
  std::istringstream in(read_text(files.truth()));
  Truth truth;
  std::string tag;
  while (in >> tag) {
    if (tag == "pair") {
      PlantedPair p;
      std::string hex;
      in >> p.i >> p.j >> hex;
      p.prime = BigInt::from_hex(hex);
      truth.pairs.push_back(std::move(p));
    } else if (tag == "record") {
      std::string kind;
      StreamRecord r;
      in >> kind >> r.key;
      r.kind = kind == "key"   ? StreamRecord::Kind::kKey
               : kind == "dup" ? StreamRecord::Kind::kDuplicate
                               : StreamRecord::Kind::kMalformed;
      truth.records.push_back(r);
    } else {
      throw std::runtime_error("truth file: unknown tag " + tag);
    }
    if (!in) throw std::runtime_error("truth file: truncated record");
  }
  std::sort(truth.pairs.begin(), truth.pairs.end(),
            [](const auto& a, const auto& b) {
              return std::pair(a.i, a.j) < std::pair(b.i, b.j);
            });
  return truth;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

}  // namespace perfbench
