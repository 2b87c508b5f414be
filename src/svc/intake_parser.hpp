// Streaming record parser for the key-intake service — the "parse" element
// of the pipeline (docs/INTAKE_SERVICE.md).
//
// Input is an untrusted byte stream (a harvester feed, a TCP connection, a
// replayed dump) mixing three record shapes, recognized per line:
//
//   PEM blocks      "-----BEGIN {RSA }PUBLIC KEY-----" … "-----END …-----"
//                   (PKCS#1 or SPKI, src/rsa/pem) — may span many lines
//   keystore lines  "modulus <hex>" / "keypair <n-hex> …" (src/rsa/keystore)
//   raw hex lines   optional 0x / Modulus= prefix, whitespace tolerated
//                   (rsa::hex_decode_modulus)
//
// Blank lines and '#' comments are skipped. Everything else — truncated
// base64, a PEM block that never ends, odd-length hex, binary garbage — is
// REJECTED AS A RECORD AND PARSING CONTINUES: a malformed submission from
// one client must never take down the daemon or poison the records around
// it. (Contrast rsa::pem_decode_bundle / rsa::load_moduli, which throw on
// the first malformed record — correct for trusted local files, fatal for a
// public intake socket.)
//
// The parser is incremental: feed() arbitrary chunks as they arrive off a
// socket (records split across chunk boundaries are fine), drain() completed
// records, finish() once at EOF to flush a trailing unterminated record.
//
// Memory is bounded whatever the stream holds: a line or a PEM block that
// outgrows kMaxRecordBytes is rejected as one record the moment it crosses
// the cap, its further bytes are dropped, and parsing resumes after the
// next newline (a line) or END armor (a PEM block).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "mp/bigint.hpp"

namespace bulkgcd::svc {

enum class RecordKind {
  kPem,       ///< PEM public-key block (PKCS#1 or SPKI)
  kKeystore,  ///< "modulus <hex>" / "keypair …" keystore record
  kRawHex,    ///< bare hex modulus line
};

/// One parsed (or rejected) intake record.
struct IntakeRecord {
  bool ok = false;
  mp::BigInt n;               ///< the modulus, when ok
  RecordKind kind = RecordKind::kRawHex;
  std::size_t line = 0;       ///< 1-based input line where the record started
  std::string error;          ///< reject reason, when !ok
};

/// The value screen every key passes before it reaches the probe engines,
/// which require odd values of at least 3 (an even "RSA modulus" is
/// trivially broken anyway, and 0/1 would poison the scan corpus). Returns
/// why `n` fails, or an empty view when it passes. IntakeParser,
/// IntakeService::submit and the arrival journal's replay all apply it.
std::string_view modulus_screen_error(const mp::BigInt& n) noexcept;

class IntakeParser {
 public:
  /// Longest line, and largest PEM block, the parser buffers. Far above any
  /// legitimate record: a keypair line for a 16384-bit key is ~12 KiB of
  /// hex, its PEM block ~3 KiB.
  static constexpr std::size_t kMaxRecordBytes = 64 * 1024;

  /// Append a chunk of the stream; complete records become drainable.
  void feed(std::string_view chunk);

  /// Take every record completed so far (ok and rejected, input order).
  std::vector<IntakeRecord> drain();

  /// Flush at end of stream: a partial final line is parsed as a record, an
  /// unterminated PEM block becomes a reject. Returns like drain().
  std::vector<IntakeRecord> finish();

  std::size_t lines_seen() const noexcept { return line_no_; }

 private:
  void consume_line(std::string_view line);
  void drop_line();
  void drop_pem();
  void reject(std::size_t line, std::string error);
  void accept(mp::BigInt n, RecordKind kind, std::size_t line);

  std::string pending_;   ///< partial line awaiting its newline
  std::string pem_;       ///< accumulating PEM block body
  bool dropping_line_ = false;  ///< an overlong line runs to its newline
  bool in_pem_ = false;
  bool dropping_pem_ = false;   ///< an oversized PEM block runs to its END
  std::size_t pem_start_line_ = 0;
  std::size_t line_no_ = 0;
  std::vector<IntakeRecord> out_;
};

}  // namespace bulkgcd::svc
