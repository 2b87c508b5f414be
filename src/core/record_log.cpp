#include "core/record_log.hpp"

#include <unistd.h>  // fsync

#include <algorithm>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "obs/span.hpp"
#include "obs/trace.hpp"

namespace bulkgcd::core {

namespace {

constexpr std::size_t kMagicSize = 8;

std::string read_file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("record_log: cannot read " + path.string());
  }
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

}  // namespace

// ---- RecordWriter ----------------------------------------------------------

void RecordWriter::put(std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) out_.push_back(char((v >> (8 * i)) & 0xff));
}

void RecordWriter::str(std::string_view s) {
  u32(std::uint32_t(s.size()));
  out_.append(s);
}

template <mp::LimbType Limb>
void RecordWriter::bigint_limbs(const mp::BigIntT<Limb>& n) {
  constexpr std::size_t kWords = std::size_t(mp::limb_bits<Limb>) / 32;
  const auto limbs = n.limbs();
  const std::size_t words = (n.bit_length() + 31) / 32;
  u32(std::uint32_t(words));
  // Sized once: tree levels run to megabytes, so no per-byte append.
  const std::size_t at = out_.size();
  out_.resize(at + 4 * words);
  char* p = out_.data() + at;
  for (std::size_t w = 0; w < words; ++w) {
    const auto word = std::uint32_t(limbs[w / kWords] >> (32 * (w % kWords)));
    for (int b = 0; b < 4; ++b) *p++ = char(word >> (8 * b));
  }
}

template void RecordWriter::bigint_limbs(const mp::BigInt&);
template void RecordWriter::bigint_limbs(const mp::BigInt64&);

void RecordWriter::bigint_bytes(const mp::BigInt& n) {
  const auto limbs = n.limbs();
  const std::size_t bytes = (n.bit_length() + 7) / 8;
  u32(std::uint32_t(bytes));
  for (std::size_t b = 0; b < bytes; ++b) {
    out_.push_back(char((limbs[b / 4] >> (8 * (b % 4))) & 0xff));
  }
}

// ---- Cursor ----------------------------------------------------------------

bool Cursor::count32(std::uint64_t& n, std::size_t min_size) noexcept {
  std::uint32_t v = 0;
  if (!u32(v) || !fits(v, min_size)) return false;
  n = v;
  return true;
}

bool Cursor::count64(std::uint64_t& n, std::size_t min_size) noexcept {
  return u64(n) && fits(n, min_size);
}

bool Cursor::str(std::string& s) {
  std::uint64_t len = 0;
  if (!count32(len, 1)) return false;
  s.assign(bytes_.substr(pos_, len));
  pos_ += len;
  return true;
}

template <mp::LimbType Limb>
bool Cursor::bigint_limbs(mp::BigIntT<Limb>& n) {
  std::uint64_t nlimbs = 0;
  if (!count32(nlimbs, 4)) return false;
  std::vector<std::uint32_t> limbs(nlimbs);
  for (auto& limb : limbs) u32(limb);
  n = mp::repack<Limb>(mp::BigInt::from_limbs(limbs));
  return true;
}

template bool Cursor::bigint_limbs(mp::BigInt&);
template bool Cursor::bigint_limbs(mp::BigInt64&);

bool Cursor::bigint_bytes(mp::BigInt& n) {
  std::uint64_t nbytes = 0;
  if (!count32(nbytes, 1)) return false;
  std::vector<std::uint32_t> limbs((nbytes + 3) / 4, 0);
  for (std::uint64_t b = 0; b < nbytes; ++b) {
    const auto byte = std::uint32_t(std::uint8_t(bytes_[pos_++]));
    limbs[b / 4] |= byte << (8 * (b % 4));
  }
  n = mp::BigInt::from_limbs(limbs);
  return true;
}

// ---- RecordLog -------------------------------------------------------------

RecordLog::RecordLog(std::filesystem::path path, const LogSchema& schema,
                     std::size_t fsync_every,
                     obs::HistogramMetric* fsync_hist,
                     obs::TraceRecorder* trace, bool replace_mismatched)
    : path_(std::move(path)),
      name_(schema.name),
      fsync_every_(std::max<std::size_t>(1, fsync_every)),
      fsync_hist_(fsync_hist),
      trace_(trace) {
  if (trace_ != nullptr) {
    fsync_trace_id_ = trace_->intern("journal_fsync");
    trace_->set_arg_names(fsync_trace_id_, "", "", "");
  }
  const std::string& header = schema.header;
  std::error_code ec;
  if (!std::filesystem::exists(path_, ec)) {
    create(header);
    return;
  }
  const std::string bytes = read_file_bytes(path_);
  const std::string_view head = std::string_view(bytes).substr(0, kMagicSize);
  const bool magic_ok = head == std::string_view(header).substr(0, head.size());
  if (bytes.size() < header.size() && magic_ok) {
    // Empty, or a crash tore the header while creating the log: the file
    // holds no record yet, so starting over loses nothing.
    create(header);
    return;
  }
  std::string why;
  if (!magic_ok) {
    why = "bad magic, not a " + name_;
  } else {
    Cursor identity(bytes, kMagicSize);
    why = schema.check_identity(identity);
  }
  if (!why.empty()) {
    if (!replace_mismatched) {
      throw std::runtime_error(name_ + " " + path_.string() +
                               " is not resumable for this run: " + why);
    }
    create(header);
    return;
  }

  Cursor c(bytes, header.size());
  good_offset_ = header.size();
  while (!c.done() && schema.parse_record(c)) good_offset_ = c.pos();

  // Drop the torn tail before appending so the next reader never sees a
  // partial record followed by complete ones.
  if (bytes.size() > good_offset_) {
    std::filesystem::resize_file(path_, good_offset_);
  }
  file_.reset(std::fopen(path_.string().c_str(), "ab"));
  if (!file_) fail("cannot append");
}

RecordLog::~RecordLog() {
  if (file_ && unsynced_ > 0) {
    std::fflush(file_.get());
    ::fsync(::fileno(file_.get()));
  }
}

void RecordLog::create(const std::string& header) {
  file_.reset(std::fopen(path_.string().c_str(), "wb"));
  if (!file_) fail("cannot write");
  good_offset_ = header.size();
  std::lock_guard lock(mutex_);
  write_locked(header);
  sync_locked();
}

void RecordLog::append(std::string_view record, bool durable) {
  std::lock_guard lock(mutex_);
  write_locked(record);
  if (durable || ++unsynced_ >= fsync_every_) sync_locked();
}

void RecordLog::sync() {
  std::lock_guard lock(mutex_);
  sync_locked();
}

void RecordLog::write_locked(std::string_view bytes) {
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) !=
      bytes.size()) {
    fail("write failed");
  }
}

void RecordLog::sync_locked() {
  obs::ScopedSpan span(fsync_hist_);
  obs::TraceSpan tspan(trace_, fsync_trace_id_);
  if (std::fflush(file_.get()) != 0 || ::fsync(::fileno(file_.get())) != 0) {
    fail("fsync failed");
  }
  unsynced_ = 0;
}

void RecordLog::fail(std::string_view what) const {
  throw std::runtime_error(name_ + " " + path_.string() + ": " +
                           std::string(what));
}

}  // namespace bulkgcd::core
