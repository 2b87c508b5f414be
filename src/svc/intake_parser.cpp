#include "svc/intake_parser.hpp"

#include <cctype>
#include <stdexcept>
#include <string>

#include "rsa/pem.hpp"

namespace bulkgcd::svc {

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// First whitespace-delimited token (for keystore record keywords).
std::string_view first_token(std::string_view s) {
  std::size_t end = 0;
  while (end < s.size() && !std::isspace(static_cast<unsigned char>(s[end]))) {
    ++end;
  }
  return s.substr(0, end);
}

}  // namespace

void IntakeParser::feed(std::string_view chunk) {
  // Split on newlines, carrying a partial tail line across feeds so records
  // broken at arbitrary chunk boundaries reassemble.
  std::size_t pos = 0;
  while (pos < chunk.size()) {
    const std::size_t nl = chunk.find('\n', pos);
    const std::string_view piece = chunk.substr(pos, nl - pos);
    if (!dropping_line_) {
      if (pending_.size() + piece.size() > kMaxRecordBytes) {
        drop_line();
      } else {
        pending_.append(piece);
      }
    }
    if (nl == std::string_view::npos) break;
    if (dropping_line_) {
      dropping_line_ = false;  // the overlong line ends here
      ++line_no_;
    } else {
      std::string line = std::move(pending_);
      pending_.clear();
      consume_line(line);
    }
    pos = nl + 1;
  }
}

void IntakeParser::drop_line() {
  dropping_line_ = true;
  pending_ = std::string();  // release the buffer, not just its contents
  if (in_pem_) {
    drop_pem();
  } else {
    reject(line_no_ + 1, "record line over " + std::to_string(kMaxRecordBytes) +
                             " bytes");
  }
}

void IntakeParser::drop_pem() {
  if (dropping_pem_) return;
  dropping_pem_ = true;
  pem_ = std::string();
  reject(pem_start_line_,
         "PEM block over " + std::to_string(kMaxRecordBytes) + " bytes");
}

std::vector<IntakeRecord> IntakeParser::drain() {
  std::vector<IntakeRecord> taken = std::move(out_);
  out_.clear();
  return taken;
}

std::vector<IntakeRecord> IntakeParser::finish() {
  if (dropping_line_) {
    dropping_line_ = false;  // already rejected
    ++line_no_;
  } else if (!pending_.empty()) {
    std::string line = std::move(pending_);
    pending_.clear();
    consume_line(line);
  }
  if (in_pem_) {
    in_pem_ = false;
    pem_.clear();
    if (!dropping_pem_) {
      reject(pem_start_line_,
             "unterminated PEM block (stream ended before END)");
    }
    dropping_pem_ = false;
  }
  return drain();
}

void IntakeParser::consume_line(std::string_view raw) {
  ++line_no_;
  // Tolerate CRLF feeds.
  if (!raw.empty() && raw.back() == '\r') raw.remove_suffix(1);
  const std::string_view line = trim(raw);

  if (in_pem_) {
    if (dropping_pem_) {
      // skip to the END armor
    } else if (pem_.size() + raw.size() + 1 > kMaxRecordBytes) {
      drop_pem();
    } else {
      pem_.append(raw);
      pem_.push_back('\n');
    }
    if (line.rfind("-----END", 0) == 0) {
      in_pem_ = false;
      if (!dropping_pem_) {
        try {
          const rsa::PublicKey key = rsa::pem_decode_public_key(pem_);
          accept(key.n, RecordKind::kPem, pem_start_line_);
        } catch (const std::exception& e) {
          reject(pem_start_line_, std::string("bad PEM block: ") + e.what());
        }
      }
      dropping_pem_ = false;
      pem_.clear();
    }
    return;
  }

  if (line.empty() || line.front() == '#') return;

  if (line.rfind("-----BEGIN", 0) == 0) {
    in_pem_ = true;
    pem_start_line_ = line_no_;
    pem_.assign(raw);
    pem_.push_back('\n');
    return;
  }

  const std::string_view keyword = first_token(line);
  if (keyword == "modulus" || keyword == "keypair") {
    // Keystore record: the modulus is the first field after the keyword
    // (keypair carries e/d/p/q behind it — an intake service only needs n).
    const std::string_view rest = trim(line.substr(keyword.size()));
    const std::string_view hex = first_token(rest);
    if (hex.empty()) {
      reject(line_no_, "keystore record without a modulus field");
      return;
    }
    try {
      accept(mp::BigInt::from_hex(std::string(hex)), RecordKind::kKeystore,
             line_no_);
    } catch (const std::exception& e) {
      reject(line_no_, std::string("bad keystore record: ") + e.what());
    }
    return;
  }

  try {
    accept(rsa::hex_decode_modulus(line), RecordKind::kRawHex, line_no_);
  } catch (const std::exception& e) {
    reject(line_no_, std::string("unrecognized record: ") + e.what());
  }
}

std::string_view modulus_screen_error(const mp::BigInt& n) noexcept {
  if (n.bit_length() < 2) return "rejected modulus: value below 2";
  if (!n.is_odd()) {
    return "rejected modulus: even value is not a valid RSA modulus";
  }
  return {};
}

void IntakeParser::accept(mp::BigInt n, RecordKind kind, std::size_t line) {
  // Value-level screen shared by every record shape.
  if (const std::string_view error = modulus_screen_error(n); !error.empty()) {
    reject(line, std::string(error));
    return;
  }
  IntakeRecord rec;
  rec.ok = true;
  rec.n = std::move(n);
  rec.kind = kind;
  rec.line = line;
  out_.push_back(std::move(rec));
}

void IntakeParser::reject(std::size_t line, std::string error) {
  IntakeRecord rec;
  rec.ok = false;
  rec.line = line;
  rec.error = std::move(error);
  out_.push_back(std::move(rec));
}

}  // namespace bulkgcd::svc
