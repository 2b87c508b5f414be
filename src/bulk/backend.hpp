// Bulk execution backend selection (the CPU analogue of a CUDA launch
// configuration). BulkBackend is the one engine selector: it names the path
// every sweep block and probe block runs; VecIsa is the only sub-choice, the
// instruction set the vector backend executes with. Both enums deliberately
// live outside the engine headers: AllPairsConfig carries them, and the
// checkpoint journal identity deliberately EXCLUDES them beyond "scalar or
// not" — every SIMT backend produces bit-identical hits and statistics
// (asserted by the differential tests), so a checkpoint written under one
// resumes under any other.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace bulkgcd::bulk {

/// kScalar = 0 and kAuto = 1 keep the int values of the scalar and SIMT
/// engine kinds this enum replaced: value-parameterised tests print configs
/// byte for byte into their case names.
enum class BulkBackend {
  kScalar,    ///< one GcdEngine per worker, pair by pair (Table V's CPU column)
  kAuto,      ///< resolve at runtime: vector when the CPU has it, else staged
  kLockstep,  ///< per-lane loads + warp-lockstep rounds (reference path)
  kStaged,    ///< corpus panels + lane-serial scalar execution (CUDA shape)
  kVector,    ///< corpus panels + W-lane SIMD warp engine (bulk/vec/)
};

enum class VecIsa : std::uint8_t {
  kAuto,      ///< cpuid-probe the best compiled-in ISA
  kPortable,  ///< the same W-wide kernels compiled with baseline flags
  kAvx2,      ///< the -mavx2 translation unit (x86-64 with AVX2 only)
};

constexpr const char* to_string(BulkBackend b) noexcept {
  switch (b) {
    case BulkBackend::kScalar: return "scalar";
    case BulkBackend::kAuto: return "auto";
    case BulkBackend::kLockstep: return "lockstep";
    case BulkBackend::kStaged: return "staged";
    case BulkBackend::kVector: return "vector";
    default: return "?";
  }
}

constexpr const char* to_string(VecIsa isa) noexcept {
  switch (isa) {
    case VecIsa::kAuto: return "auto";
    case VecIsa::kPortable: return "portable";
    case VecIsa::kAvx2: return "avx2";
    default: return "?";
  }
}

/// Inverse of to_string(BulkBackend): the one parser behind the
/// BULKGCD_FORCE_BACKEND override and the CLIs' --backend flags. nullopt
/// for anything that is not a backend name.
constexpr std::optional<BulkBackend> parse_backend(std::string_view name) {
  for (const BulkBackend b :
       {BulkBackend::kScalar, BulkBackend::kAuto, BulkBackend::kLockstep,
        BulkBackend::kStaged, BulkBackend::kVector}) {
    if (name == to_string(b)) return b;
  }
  return std::nullopt;
}

/// The corpus is staged once into CorpusPanels iff the (resolved) backend
/// refreshes its batches by bulk panel copy.
constexpr bool uses_panels(BulkBackend b) noexcept {
  return b == BulkBackend::kStaged || b == BulkBackend::kVector;
}

}  // namespace bulkgcd::bulk
