// BigInt class-level tests: string conversions, operators, Karatsuba.
#include "mp/bigint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "gmp_oracle.hpp"
#include "mp/karatsuba.hpp"

namespace bulkgcd::mp {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::Mpz;
using bulkgcd::test::random_value;
using bulkgcd::test::to_mpz;

TEST(BigIntTest, DecimalRoundTrip) {
  Xoshiro256 rng(21);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(600));
    EXPECT_EQ(BigInt::from_dec(a.to_dec()), a);
    EXPECT_EQ(a.to_dec(), to_mpz(a).to_dec());  // oracle agreement
  }
  EXPECT_EQ(BigInt().to_dec(), "0");
  EXPECT_EQ(BigInt::from_dec("0"), BigInt());
}

TEST(BigIntTest, HexRoundTrip) {
  Xoshiro256 rng(22);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(600));
    EXPECT_EQ(BigInt::from_hex(a.to_hex()), a);
  }
  EXPECT_EQ(BigInt::from_hex("0xff"), BigInt(255));
  EXPECT_EQ(BigInt::from_hex("DEAD_beef"), BigInt(0xDEADBEEFull));
  EXPECT_EQ(BigInt().to_hex(), "0");
}

TEST(BigIntTest, ParseRejectsGarbage) {
  EXPECT_THROW(BigInt::from_dec(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_dec("12x"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex(""), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("0x"), std::invalid_argument);
  EXPECT_THROW(BigInt::from_hex("xyz"), std::invalid_argument);
}

TEST(BigIntTest, BinaryGroupedMatchesPaperNotation) {
  // The paper writes 223 as "1101,1111" and pads top groups ("0101" for 5).
  EXPECT_EQ(BigInt(223).to_binary_grouped(), "1101,1111");
  EXPECT_EQ(BigInt(5).to_binary_grouped(), "0101");
  EXPECT_EQ(BigInt(17185).to_binary_grouped(), "0100,0011,0010,0001");
  EXPECT_EQ(BigInt().to_binary_grouped(), "0");
}

TEST(BigIntTest, ComparisonOperators) {
  const BigInt a(100), b(200);
  EXPECT_LT(a, b);
  EXPECT_GT(b, a);
  EXPECT_LE(a, a);
  EXPECT_EQ(a, BigInt(100));
  EXPECT_NE(a, b);
  EXPECT_LT(BigInt(), a);  // zero smallest
}

TEST(BigIntTest, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigInt(1) - BigInt(2), std::domain_error);
}

TEST(BigIntTest, DivisionByZeroThrows) {
  EXPECT_THROW(BigInt(1) / BigInt(), std::domain_error);
  EXPECT_THROW(BigInt(1) % BigInt(), std::domain_error);
}

TEST(BigIntTest, BitAccessors) {
  const BigInt v(0b1011);
  EXPECT_TRUE(v.bit(0));
  EXPECT_TRUE(v.bit(1));
  EXPECT_FALSE(v.bit(2));
  EXPECT_TRUE(v.bit(3));
  EXPECT_FALSE(v.bit(64));
  EXPECT_EQ(v.bit_length(), 4u);
  EXPECT_TRUE(v.is_odd());
  EXPECT_TRUE(BigInt(4).is_even());
  EXPECT_EQ(BigInt(12).trailing_zero_bits(), 2u);
}

TEST(BigIntTest, ToU64TruncatesHighBits) {
  const BigInt big = BigInt(1) << 100;
  EXPECT_EQ(big.to_u64(), 0u);
  const BigInt v = (BigInt(7) << 64) + BigInt(42);
  EXPECT_EQ(v.to_u64(), 42u);
}

TEST(KaratsubaTest, MatchesSchoolbookAcrossSizes) {
  Xoshiro256 rng(23);
  for (const std::size_t bits : {100u, 800u, 2000u, 5000u, 20000u}) {
    const BigInt a = random_value<std::uint32_t>(rng, bits);
    const BigInt b = random_value<std::uint32_t>(rng, bits + rng.below(bits));
    const auto k = mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    std::vector<std::uint32_t> s(a.size() + b.size());
    s.resize(mul_schoolbook(s.data(), a.data(), a.size(), b.data(), b.size()));
    EXPECT_EQ(k, s) << "bits=" << bits;
  }
}

TEST(KaratsubaTest, UnbalancedOperands) {
  Xoshiro256 rng(24);
  const BigInt a = random_value<std::uint32_t>(rng, 10000);
  const BigInt b = random_value<std::uint32_t>(rng, 700);
  Mpz expected;
  mpz_mul(expected.get(), to_mpz(a).get(), to_mpz(b).get());
  EXPECT_EQ(to_mpz(a * b), expected);
}

TEST(KaratsubaTest, ZeroAndTinyOperands) {
  const BigInt zero;
  const BigInt one(1);
  EXPECT_TRUE(mul_karatsuba(zero.data(), 0, one.data(), 1).empty());
  Xoshiro256 rng(25);
  const BigInt a = random_value<std::uint32_t>(rng, 4000);
  const auto prod = mul_karatsuba(a.data(), a.size(), one.data(), 1);
  EXPECT_EQ(BigInt::from_limbs(prod), a);
}

TEST(BigIntTest, ShiftOperatorsComposeWithArithmetic) {
  Xoshiro256 rng(26);
  for (int trial = 0; trial < 50; ++trial) {
    const BigInt a = random_value<std::uint32_t>(rng, 1 + rng.below(200));
    const std::size_t k = rng.below(70);
    EXPECT_EQ((a << k) >> k, a);
    EXPECT_EQ(a << k, a * (BigInt(1) << k));
  }
}

template <typename Limb>
class RepackLimbsTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(RepackLimbsTest, LimbTypes);

/// src → Dst → Src keeps the value (checked against GMP) and comes back as
/// the normalized source limbs.
template <LimbType Dst, LimbType Src>
void expect_round_trip(const std::vector<Src>& src) {
  const auto value = BigIntT<Src>::from_limbs(src);
  const std::vector<Dst> packed = repack_limbs<Dst>(std::span<const Src>(src));
  EXPECT_TRUE(packed.empty() || packed.back() != 0) << "normalized";
  EXPECT_EQ(to_mpz(BigIntT<Dst>::from_limbs(packed)), to_mpz(value));
  EXPECT_EQ(repack<Dst>(value).limbs().size(), packed.size());
  const std::vector<Src> back = repack_limbs<Src>(std::span<const Dst>(packed));
  EXPECT_TRUE(std::equal(back.begin(), back.end(), value.limbs().begin(),
                         value.limbs().end()));
}

TYPED_TEST(RepackLimbsTest, RoundTripsThroughEveryWidth) {
  using Limb = TypeParam;
  constexpr Limb kOnes = Limb(~Limb{0});
  std::vector<std::vector<Limb>> cases = {
      {}, {0}, {0, 0, 0}, {1}, {1, 0, 0}, {kOnes}, {kOnes, kOnes, 0}};
  Xoshiro256 rng(27);
  for (std::size_t bits : {1, 15, 16, 17, 31, 32, 33, 63, 64, 65, 200, 1024}) {
    const auto v = random_value<Limb>(rng, bits);
    std::vector<Limb> limbs(v.limbs().begin(), v.limbs().end());
    cases.push_back(limbs);
    limbs.insert(limbs.end(), {Limb{0}, Limb{0}});  // high zero limbs
    cases.push_back(limbs);
  }
  for (const auto& limbs : cases) {
    expect_round_trip<std::uint16_t>(limbs);
    expect_round_trip<std::uint32_t>(limbs);
    expect_round_trip<std::uint64_t>(limbs);
  }
}

}  // namespace
}  // namespace bulkgcd::mp
