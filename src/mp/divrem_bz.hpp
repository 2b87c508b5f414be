// Burnikel–Ziegler recursive division (MPI-I-98-1-022). The division rung
// beside the multiply ladder: Knuth D (span_ops.hpp divrem) is O(n²), so a
// 2n÷n-limb division at batch-GCD remainder-tree sizes costs far more than
// the multiplications that built the tree. BZ splits a 2n÷n division into
// two 3n/2 ÷ n divisions, each of which is one n/2-size recursive division
// plus one n/2 × n/2 multiplication through mul_dispatch, so division
// inherits the Karatsuba/Toom-3 exponent: about two multiplies of the
// divisor's size instead of a quadratic pass.
//
// Layout rules (all spans little-endian, as in span_ops.hpp):
//   * the divisor is shifted left until it fills n = j·2^k limbs with its
//     top bit set, j < kBurnikelZieglerThreshold, so every recursion level
//     halves evenly down to a Knuth D base case of j limbs;
//   * the dividend is shifted by the same amount into a buffer sized from
//     its shifted bit length, walked in n-limb blocks from the top; each
//     block's remainder is written back in place, where it becomes the high
//     half of the next 2n-limb window.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <vector>

#include "mp/span_ops.hpp"
#include "mp/toom3.hpp"

namespace bulkgcd::mp {

/// Recursion floor of divrem_bz: block sizes below this many limbs divide
/// with Knuth D. BigIntT::divmod engages BZ only for divisors of at least
/// 2× this many limbs and quotients of at least this many, so RSA-size
/// arithmetic (and the GCD kernels) stays on Knuth D.
inline constexpr std::size_t kBurnikelZieglerThreshold = 64;

namespace bz_detail {

template <LimbType Limb>
void div3n2n(Limb* q, Limb* a, const Limb* b, std::size_t n);

/// a[0..2n) ÷ b[0..n), requires a < b·β^n and b's top bit set. Writes the
/// n-limb quotient to q; leaves the remainder in a[0..n) and zeroes a[n..2n).
template <LimbType Limb>
void div2n1n(Limb* q, Limb* a, const Limb* b, std::size_t n) {
  if (n % 2 != 0 || n < kBurnikelZieglerThreshold) {
    // Knuth D wants n + 1 quotient limbs (the top one is 0 here) and a
    // separate remainder buffer, so neither may land in the caller's spans.
    std::vector<Limb> qb(n + 1, Limb{0}), rb(n, Limb{0});
    divrem(qb.data(), rb.data(), a, 2 * n, b, n);
    std::copy_n(qb.data(), n, q);
    std::copy_n(rb.data(), n, a);
    std::fill(a + n, a + 2 * n, Limb{0});
    return;
  }
  const std::size_t h = n / 2;
  div3n2n(q + h, a + h, b, h);  // top three halves → remainder in a[h..3h)
  div3n2n(q, a, b, h);          // [remainder, low half] → a[0..2h)
}

/// a[0..3n) ÷ b[0..2n), requires a < b·β^n and b's top bit set. Writes the
/// n-limb quotient to q; leaves the remainder in a[0..2n) and zeroes
/// a[2n..3n).
template <LimbType Limb>
void div3n2n(Limb* q, Limb* a, const Limb* b, std::size_t n) {
  const Limb* b1 = b + n;  // high half of the divisor
  Limb carry = 0;
  if (compare(a + 2 * n, normalized_size(a + 2 * n, n), b1, n) < 0) {
    div2n1n(q, a + n, b1, n);  // q̂ = [a1 a2] / b1, r1 → a[n..2n)
  } else {
    // a1 == b1 (a < b·β^n rules out a1 > b1): q̂ = β^n − 1 and
    // r1 = [a1 a2] − q̂·b1 = a2 + b1, which may carry one bit past n limbs.
    std::fill(q, q + n, Limb(~Limb{0}));
    carry = add_in_place(a + n, n, b1, n);
    std::fill(a + 2 * n, a + 3 * n, Limb{0});
  }
  // r̂ = [r1 a3] − q̂·b2; q̂ exceeds the true quotient by at most 2.
  const std::vector<Limb> d = mul_dispatch(q, n, b, n);
  int top = int(carry) - int(sub_in_place(a, 2 * n, d.data(), d.size()));
  while (top < 0) {  // add back b, one less in q̂
    top += int(add_in_place(a, 2 * n, b, 2 * n));
    const Limb one{1};
    sub_in_place(q, n, &one, 1);
  }
  assert(top == 0);
}

}  // namespace bz_detail

/// a = q * b + r with 0 <= r < b, by Burnikel–Ziegler recursion over
/// mul_dispatch. Same contract as divrem (span_ops.hpp):
///   q capacity: na - nb + 1 (when na >= nb; untouched otherwise)
///   r capacity: nb
/// Requires b != 0; no aliasing. Returns normalized sizes of q and r.
template <LimbType Limb>
DivSizes divrem_bz(Limb* q, Limb* r, const Limb* a, std::size_t na,
                   const Limb* b, std::size_t nb) {
  constexpr std::size_t LB = limb_bits<Limb>;
  na = normalized_size(a, na);
  nb = normalized_size(b, nb);
  assert(nb > 0 && "division by zero");
  if (compare(a, na, b, nb) < 0) {
    std::copy(a, a + na, r);
    return {0, na};
  }

  // Block size n = j·2^k >= nb with j below the threshold.
  std::size_t j = nb, k = 0;
  while (j >= kBurnikelZieglerThreshold) {
    j = (j + 1) / 2;
    ++k;
  }
  const std::size_t n = j << k;
  const std::size_t sigma = n * LB - bit_length(b, nb);

  std::vector<Limb> bs(n + 1, Limb{0});  // +1: shl's spill limb
  shl(bs.data(), b, nb, sigma);

  // t blocks hold the shifted dividend with its top bit clear, so the top
  // block is below bs and the first 2n-limb window meets div2n1n's bound.
  const std::size_t bits = bit_length(a, na) + sigma;
  const std::size_t t = std::max<std::size_t>(2, (bits + 1 + n * LB - 1) / (n * LB));
  std::vector<Limb> u(t * n + 1, Limb{0});  // +1: shl's spill limb
  shl(u.data(), a, na, sigma);

  const std::size_t q_cap = na - nb + 1;
  std::fill(q, q + q_cap, Limb{0});
  std::vector<Limb> qb(n);
  for (std::size_t i = t - 1; i-- > 0;) {
    bz_detail::div2n1n(qb.data(), u.data() + i * n, bs.data(), n);
    // Quotient limbs past q_cap are zero by the size bound on a / b.
    if (i * n < q_cap) {
      std::copy_n(qb.data(), std::min(n, q_cap - i * n), q + i * n);
    }
  }

  const std::size_t rsize = shr(u.data(), u.data(), n, sigma);
  std::copy_n(u.data(), rsize, r);
  return {normalized_size(q, q_cap), rsize};
}

}  // namespace bulkgcd::mp
