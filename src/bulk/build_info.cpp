#include "bulk/build_info.hpp"

#include <cstdio>

#include "bulk/allpairs.hpp"
#include "bulk/scan_corpus.hpp"

#ifndef BULKGCD_VERSION
#define BULKGCD_VERSION "0.0.0-unversioned"
#endif

namespace bulkgcd::bulk {

BuildInfo query_build_info() {
  BuildInfo info;
  info.version = BULKGCD_VERSION;
  info.limb_bits = int(sizeof(ScanLimb) * 8);
  info.compiled_backends = {"scalar", "lockstep", "staged",
                           "vector-portable"};
#if defined(BULKGCD_HAVE_AVX2_TU)
  info.compiled_backends.push_back("vector-avx2");
#endif
  // What a default scan would actually run here: resolve a default config
  // the same way all_pairs_gcd does (environment override + CPU
  // probe). resolve_backend throws only on a malformed BULKGCD_FORCE_BACKEND
  // value; report that instead of crashing a status probe.
  try {
    AllPairsConfig cfg;
    resolve_backend(cfg);
    if (cfg.backend == BulkBackend::kVector) {
      info.active_backend =
          std::string("vector-") + to_string(cfg.vec_isa);
    } else {
      info.active_backend = to_string(cfg.backend);
    }
  } catch (const std::exception& e) {
    info.active_backend = std::string("invalid: ") + e.what();
  }
  return info;
}

std::string build_info_json(const BuildInfo& info, double uptime_seconds) {
  char uptime[40];
  std::snprintf(uptime, sizeof(uptime), "%.3f", uptime_seconds);
  std::string out = "{\"service\":\"bulkgcd\",\"version\":\"" + info.version +
                    "\",\"uptime_seconds\":" + uptime +
                    ",\"limb_bits\":" + std::to_string(info.limb_bits) +
                    ",\"compiled_backends\":[";
  for (std::size_t i = 0; i < info.compiled_backends.size(); ++i) {
    if (i) out += ",";
    out += "\"" + info.compiled_backends[i] + "\"";
  }
  out += "],\"active_backend\":\"" + info.active_backend + "\"}";
  return out;
}

std::string build_info_line(const BuildInfo& info) {
  std::string out = "bulkgcd " + info.version + " | limbs " +
                    std::to_string(info.limb_bits) + "-bit | backends ";
  for (std::size_t i = 0; i < info.compiled_backends.size(); ++i) {
    if (i) out += ",";
    out += info.compiled_backends[i];
  }
  out += " | active " + info.active_backend;
  return out;
}

}  // namespace bulkgcd::bulk
