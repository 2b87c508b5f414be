// Algebraic stress tests for the multiprecision layer: identities that must
// hold for ALL inputs, driven with adversarial shapes (all-ones limbs, long
// zero runs, single bits, huge size imbalances). These complement the
// GMP-oracle tests with self-consistency that would catch a broken oracle
// conversion too.
#include <gtest/gtest.h>

#include "gmp_oracle.hpp"
#include "mp/bigint.hpp"
#include "mp/divrem_bz.hpp"
#include "mp/karatsuba.hpp"
#include "mp/toom3.hpp"

namespace bulkgcd::mp {
namespace {

using bulkgcd::Xoshiro256;
using bulkgcd::test::random_value;

/// Adversarial value generator: mixes random, all-ones, single-bit, and
/// zero-run-heavy shapes.
template <typename Limb>
BigIntT<Limb> adversarial(Xoshiro256& rng) {
  using Big = BigIntT<Limb>;
  const std::size_t bits = 1 + rng.below(600);
  switch (rng.below(6)) {
    case 0:
      return random_value<Limb>(rng, bits);
    case 1: {  // 2^bits - 1: all ones
      return (Big(1) << bits) - Big(1);
    }
    case 2:  // single bit
      return Big(1) << bits;
    case 3: {  // low ones, long zero run, high ones
      return ((Big(1) << (bits / 3 + 1)) - Big(1)) +
             (random_value<Limb>(rng, bits / 3 + 1) << (2 * bits / 3 + 2));
    }
    case 4:  // small value
      return Big(rng.below(16));
    default:  // random with stripped low bits
      return random_value<Limb>(rng, bits) << rng.below(100);
  }
}

/// Checks a ÷ b four ways: divrem_bz and Knuth D on raw spans,
/// BigIntT::divmod (which picks its rung by operand size) and GMP.
template <typename Limb>
void expect_division_agrees(const BigIntT<Limb>& a, const BigIntT<Limb>& b) {
  using Big = BigIntT<Limb>;
  const std::size_t q_cap = a.size() >= b.size() ? a.size() - b.size() + 1 : 1;
  std::vector<Limb> q_bz(q_cap), r_bz(b.size()), q_kn(q_cap), r_kn(b.size());
  const DivSizes bz = divrem_bz(q_bz.data(), r_bz.data(), a.data(), a.size(),
                                b.data(), b.size());
  const DivSizes kn = divrem(q_kn.data(), r_kn.data(), a.data(), a.size(),
                             b.data(), b.size());
  const Big q = Big::from_limbs({q_bz.data(), bz.quotient});
  const Big r = Big::from_limbs({r_bz.data(), bz.remainder});
  test::Mpz gq, gr;
  mpz_tdiv_qr(gq.get(), gr.get(), test::to_mpz(a).get(), test::to_mpz(b).get());
  EXPECT_EQ(q, test::from_mpz<Limb>(gq));
  EXPECT_EQ(r, test::from_mpz<Limb>(gr));
  EXPECT_EQ(q, Big::from_limbs({q_kn.data(), kn.quotient}));
  EXPECT_EQ(r, Big::from_limbs({r_kn.data(), kn.remainder}));
  const auto [dq, dr] = Big::divmod(a, b);
  EXPECT_EQ(dq, q);
  EXPECT_EQ(dr, r);
}

template <typename Limb>
class MpStressTest : public ::testing::Test {};
using LimbTypes = ::testing::Types<std::uint16_t, std::uint32_t, std::uint64_t>;
TYPED_TEST_SUITE(MpStressTest, LimbTypes);

TYPED_TEST(MpStressTest, RingIdentities) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(171);
  for (int trial = 0; trial < 200; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const Big b = adversarial<Limb>(rng);
    const Big c = adversarial<Limb>(rng);
    // commutativity / associativity / distributivity
    ASSERT_EQ(a + b, b + a);
    ASSERT_EQ(a * b, b * a);
    ASSERT_EQ((a + b) + c, a + (b + c));
    ASSERT_EQ((a * b) * c, a * (b * c));
    ASSERT_EQ(a * (b + c), a * b + a * c);
    // additive cancellation
    ASSERT_EQ((a + b) - b, a);
  }
}

TYPED_TEST(MpStressTest, DivModInvariants) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(172);
  for (int trial = 0; trial < 200; ++trial) {
    const Big a = adversarial<Limb>(rng);
    Big b = adversarial<Limb>(rng);
    if (b.is_zero()) b = Big(3);
    const auto [q, r] = Big::divmod(a, b);
    ASSERT_EQ(q * b + r, a);
    ASSERT_LT(r, b);
    // (a*b) / b == a exactly
    ASSERT_EQ((a * b) / b, a);
    ASSERT_TRUE(((a * b) % b).is_zero());
    // ((a*b) + r) / b == a with remainder r (r < b)
    ASSERT_EQ((a * b + r) / b, a);
    ASSERT_EQ((a * b + r) % b, r);
  }
}

TYPED_TEST(MpStressTest, ShiftMulEquivalence) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(173);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const std::size_t k = rng.below(200);
    ASSERT_EQ(a << k, a * (Big(1) << k));
    ASSERT_EQ((a << k) >> k, a);
    // floor division by 2^k == right shift
    ASSERT_EQ(a >> k, a / (Big(1) << k));
  }
}

TYPED_TEST(MpStressTest, StringsRoundTripAdversarial) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(174);
  for (int trial = 0; trial < 60; ++trial) {
    const Big a = adversarial<Limb>(rng);
    ASSERT_EQ(Big::from_hex(a.to_hex()), a);
    ASSERT_EQ(Big::from_dec(a.to_dec()), a);
  }
}

TYPED_TEST(MpStressTest, ComparisonIsATotalOrder) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(175);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    const Big b = adversarial<Limb>(rng);
    // exactly one of <, ==, > holds
    const int rels = int(a < b) + int(a == b) + int(a > b);
    ASSERT_EQ(rels, 1);
    if (a < b) {
      ASSERT_LT(a + Big(0), b);
      ASSERT_LE(a, b - Big(1));  // integers: a < b implies a <= b-1
    }
    // adding anything nonzero grows the value
    const Big c = adversarial<Limb>(rng);
    if (!c.is_zero()) ASSERT_GT(a + c, a);
  }
}

TYPED_TEST(MpStressTest, KaratsubaSchoolbookConsistencyAdversarial) {
  using Limb = TypeParam;
  Xoshiro256 rng(176);
  for (int trial = 0; trial < 40; ++trial) {
    // sizes straddling the Karatsuba threshold on both sides
    const std::size_t bits_a =
        mp::limb_bits<Limb> * (kKaratsubaThreshold - 2 + rng.below(8));
    const auto a = random_value<Limb>(rng, bits_a) << rng.below(64);
    const auto b = random_value<Limb>(rng, 1 + rng.below(2 * bits_a));
    const auto kara = mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    std::vector<Limb> school(a.size() + b.size());
    school.resize(
        mul_schoolbook(school.data(), a.data(), a.size(), b.data(), b.size()));
    ASSERT_EQ(kara, school);
  }
}

TYPED_TEST(MpStressTest, Toom3DifferentialStraddlesTheThreshold) {
  using Limb = TypeParam;
  Xoshiro256 rng(178);
  for (int trial = 0; trial < 12; ++trial) {
    // Both operands straddle kToom3Threshold independently: Toom-3 runs for
    // real when both clear it and must agree with the lower rungs (and with
    // itself falling back) when either doesn't.
    const std::size_t limbs_a = kToom3Threshold - 4 + rng.below(12);
    const std::size_t limbs_b = kToom3Threshold - 4 + rng.below(12);
    const auto a = random_value<Limb>(rng, mp::limb_bits<Limb> * limbs_a)
                   << rng.below(64);
    const auto b = random_value<Limb>(rng, mp::limb_bits<Limb> * limbs_b);
    const auto toom = mul_toom3(a.data(), a.size(), b.data(), b.size());
    const auto kara = mul_karatsuba(a.data(), a.size(), b.data(), b.size());
    std::vector<Limb> school(a.size() + b.size());
    school.resize(
        mul_schoolbook(school.data(), a.data(), a.size(), b.data(), b.size()));
    ASSERT_EQ(toom, kara);
    ASSERT_EQ(toom, school);
    // GMP oracle on the full dispatch ladder (BigInt operator*).
    test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gp;
    mpz_mul(gp.get(), ga.get(), gb.get());
    ASSERT_EQ(a * b, test::from_mpz<Limb>(gp));
  }
}

TYPED_TEST(MpStressTest, Toom3AdversarialShapes) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const std::size_t lb = mp::limb_bits<Limb>;
  const std::size_t T = kToom3Threshold;
  Xoshiro256 rng(179);
  std::vector<Big> shapes;
  // all ones across all three split parts
  shapes.push_back((Big(1) << (3 * T * lb)) - Big(1));
  // single top bit: zero low and middle parts
  shapes.push_back(Big(1) << (3 * T * lb - 1));
  // low ones, hollow middle third, random high third
  shapes.push_back(((Big(1) << (T * lb)) - Big(1)) +
                   (random_value<Limb>(rng, T * lb) << (2 * T * lb)));
  // strong imbalance partner, just above the threshold (empty high parts
  // after the split against the big shapes)
  shapes.push_back(random_value<Limb>(rng, (T + 1) * lb));
  // 4× threshold: the pointwise products recurse into Toom-3 again
  shapes.push_back(random_value<Limb>(rng, 4 * T * lb));
  for (const auto& a : shapes) {
    for (const auto& b : shapes) {
      const auto toom = mul_toom3(a.data(), a.size(), b.data(), b.size());
      std::vector<Limb> school(a.size() + b.size());
      school.resize(mul_schoolbook(school.data(), a.data(), a.size(), b.data(),
                                   b.size()));
      ASSERT_EQ(toom, school);
    }
  }
}

TYPED_TEST(MpStressTest, DispatchLadderMatchesGmpWellAboveBothThresholds) {
  using Limb = TypeParam;
  Xoshiro256 rng(180);
  for (int trial = 0; trial < 6; ++trial) {
    // Batch-GCD tree regime: hundreds of limbs, every rung of the ladder
    // exercised by the recursion.
    const std::size_t bits_a = mp::limb_bits<Limb> * (200 + rng.below(200));
    const std::size_t bits_b = mp::limb_bits<Limb> * (200 + rng.below(200));
    const auto a = random_value<Limb>(rng, bits_a);
    const auto b = random_value<Limb>(rng, bits_b);
    test::Mpz ga = test::to_mpz(a), gb = test::to_mpz(b), gp;
    mpz_mul(gp.get(), ga.get(), gb.get());
    ASSERT_EQ(a * b, test::from_mpz<Limb>(gp));
  }
}

TYPED_TEST(MpStressTest, Toom3MatchesGmpAtFourTimesTheThreshold) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const std::size_t lb = mp::limb_bits<Limb>;
  const std::size_t T = kToom3Threshold;
  Xoshiro256 rng(181);
  std::vector<std::pair<Big, Big>> cases;
  for (int trial = 0; trial < 4; ++trial) {
    // Every pointwise product recurses into Toom-3 at least once more, so
    // the interpolation runs on nested results, with offsets that do not
    // divide the operand sizes evenly.
    cases.emplace_back(random_value<Limb>(rng, (4 * T + rng.below(5 * T)) * lb),
                       random_value<Limb>(rng, (4 * T + rng.below(5 * T)) * lb));
  }
  // Imbalanced: the short operand has empty high parts after the split.
  cases.emplace_back(random_value<Limb>(rng, 9 * T * lb),
                     random_value<Limb>(rng, (T + rng.below(T)) * lb));
  // All ones: the largest coefficients, so every partial sum is maximal.
  const Big ones = (Big(1) << (4 * T * lb)) - Big(1);
  cases.emplace_back(ones, ones);
  for (const auto& [a, b] : cases) {
    SCOPED_TRACE(::testing::Message() << a.size() << " x " << b.size());
    test::Mpz gp;
    mpz_mul(gp.get(), test::to_mpz(a).get(), test::to_mpz(b).get());
    const Big expected = test::from_mpz<Limb>(gp);
    ASSERT_EQ(Big::from_limbs(mul_toom3(a.data(), a.size(), b.data(), b.size())),
              expected);
    ASSERT_EQ(a * b, expected);
  }
}

TYPED_TEST(MpStressTest, DivremBzMatchesKnuthAndGmpAcrossTheEngagePoint) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const std::size_t lb = mp::limb_bits<Limb>;
  const std::size_t T = kBurnikelZieglerThreshold;
  Xoshiro256 rng(182);
  // Divisor sizes straddle the recursion floor T and divmod's 2T engage
  // point; most are not of the form j·2^k, and the random top limb leaves
  // a partial shift, so the padding to the block size is exercised.
  for (const std::size_t nb :
       {T - 1, T, T + 1, 2 * T - 1, 2 * T, 2 * T + 1, 3 * T + 5, 5 * T - 3,
        7 * T + 1}) {
    // Quotient lengths from none through one block to many blocks.
    for (const std::size_t nq :
         {std::size_t{0}, std::size_t{1}, T - 1, T, T + 1, nb, 3 * nb + 7}) {
      const Big b = random_value<Limb>(rng, nb * lb - rng.below(lb));
      const Big a = random_value<Limb>(rng, (nb + nq) * lb - rng.below(lb));
      SCOPED_TRACE(::testing::Message() << a.size() << " / " << b.size());
      expect_division_agrees(a, b);
    }
  }
}

TYPED_TEST(MpStressTest, DivremBzAdversarialShapes) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  const std::size_t lb = mp::limb_bits<Limb>;
  const std::size_t T = kBurnikelZieglerThreshold;
  const std::size_t nb = 5 * T + 3;
  Xoshiro256 rng(183);
  std::vector<std::pair<Big, Big>> cases;
  const Big ones_b = (Big(1) << (nb * lb)) - Big(1);
  for (const std::size_t m : {T, 2 * T + 1, 4 * nb}) {
    // Quotient all ones, remainder b − 1 over an all-ones divisor: the top
    // half of each 3n/2n step equals the divisor's top half, the a1 ≥ b1
    // branch, whose estimate β^n − 1 then needs the add-back corrections.
    cases.emplace_back((ones_b << (m * lb)) - Big(1), ones_b);
    cases.emplace_back((Big(1) << ((nb + m) * lb)) - Big(1), ones_b);
  }
  for (int trial = 0; trial < 6; ++trial) {
    // Top-heavy dividends: their top limbs repeat the divisor, so the
    // quotient estimates sit at the edge of their correction range.
    const Big b = random_value<Limb>(rng, nb * lb - rng.below(lb));
    const std::size_t m = T + rng.below(3 * nb);
    const Big tail = random_value<Limb>(rng, m * lb);
    cases.emplace_back((b << (m * lb)) + tail, b);
    cases.emplace_back((b << (m * lb)) - tail, b);
    cases.emplace_back((b << (m * lb)) - Big(1), b);
  }
  // A divisor with only its lowest top-limb bit set takes the widest shift.
  cases.emplace_back(random_value<Limb>(rng, 3 * nb * lb),
                     Big(1) << ((nb - 1) * lb));
  for (const auto& [a, b] : cases) {
    SCOPED_TRACE(::testing::Message() << a.size() << " / " << b.size());
    expect_division_agrees(a, b);
  }
}

TYPED_TEST(MpStressTest, BitLengthAndTrailingZerosConsistency) {
  using Limb = TypeParam;
  using Big = BigIntT<Limb>;
  Xoshiro256 rng(177);
  for (int trial = 0; trial < 150; ++trial) {
    const Big a = adversarial<Limb>(rng);
    if (a.is_zero()) continue;
    const std::size_t bl = a.bit_length();
    ASSERT_TRUE(a.bit(bl - 1));
    ASSERT_FALSE(a.bit(bl));
    ASSERT_GE(Big(1) << bl, a);
    ASSERT_LE(Big(1) << (bl - 1), a);
    const std::size_t tz = a.trailing_zero_bits();
    ASSERT_TRUE(a.bit(tz));
    if (tz > 0) ASSERT_FALSE(a.bit(tz - 1));
    Big stripped = a;
    stripped.strip_trailing_zeros();
    ASSERT_EQ(stripped << tz, a);
    ASSERT_TRUE(stripped.is_odd());
  }
}

}  // namespace
}  // namespace bulkgcd::mp
