// The binary (division-free) modular inverse, cross-checked against the
// divmod path.
#include <gtest/gtest.h>

#include "gmp_oracle.hpp"
#include "rsa/modmath.hpp"

namespace bulkgcd::rsa {
namespace {

using bulkgcd::Xoshiro256;
using test::random_odd;
using test::random_value;
using mp::BigInt;

TEST(BinaryModInvTest, MatchesDivisionBasedInverse) {
  Xoshiro256 rng(194);
  int tested = 0;
  while (tested < 100) {
    const BigInt m = random_odd<std::uint32_t>(rng, 3 + rng.below(250));
    if (m <= BigInt(1)) continue;
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(300));
    BigInt expected;
    bool coprime = true;
    try {
      expected = modinv(a, m);
    } catch (const std::domain_error&) {
      coprime = false;
    }
    if (!coprime) {
      EXPECT_THROW(modinv_odd_binary(a, m), std::domain_error);
    } else {
      const BigInt got = modinv_odd_binary(a, m);
      EXPECT_EQ(got, expected);
      EXPECT_EQ((a * got) % m, BigInt(1));
      ++tested;
    }
  }
}

TEST(BinaryModInvTest, RejectsEvenModulusAndNonCoprime) {
  EXPECT_THROW(modinv_odd_binary(BigInt(3), BigInt(8)), std::domain_error);
  EXPECT_THROW(modinv_odd_binary(BigInt(3), BigInt(1)), std::domain_error);
  EXPECT_THROW(modinv_odd_binary(BigInt(6), BigInt(9)), std::domain_error);
  EXPECT_THROW(modinv_odd_binary(BigInt(9), BigInt(9)), std::domain_error);
  EXPECT_THROW(modinv_odd_binary(BigInt(), BigInt(9)), std::domain_error);
}

TEST(BinaryModInvTest, RsaPrivateExponentViaBinaryInverse) {
  // d = e^{-1} mod (p-1)(q-1): φ is even, so invert modulo the odd part and
  // reconstruct — or simply verify against the standard path on odd moduli.
  Xoshiro256 rng(195);
  const BigInt m = random_odd<std::uint32_t>(rng, 160);
  const BigInt e(65537);
  try {
    const BigInt inv = modinv_odd_binary(e, m);
    EXPECT_EQ((e * inv) % m, BigInt(1));
  } catch (const std::domain_error&) {
    // m happened to share a factor with e: acceptable, rare.
  }
}

}  // namespace
}  // namespace bulkgcd::rsa
