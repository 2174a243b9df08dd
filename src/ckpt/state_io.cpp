#include "ckpt/state_io.hpp"

#include <array>
#include <cstdio>
#include <cstring>

namespace gpuqos::ckpt {
namespace {

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void append(std::vector<std::uint8_t>& out, const void* data, std::size_t n) {
  // resize + memcpy rather than insert: GCC 12's -Wstringop-overflow
  // misfires on vector::insert of a small fixed-size range.
  if (n == 0) return;
  const std::size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}

template <class T>
void append_pod(std::vector<std::uint8_t>& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  append(out, &v, sizeof(v));
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t len) {
  static constexpr std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

StateWriter::StateWriter() {
  append_pod(buf_, kSnapshotMagic);
  append_pod(buf_, kSnapshotVersion);
}

void StateWriter::require_section(const char* what) const {
  if (finished_) throw CkptError(std::string(what) + " after finish()");
  if (!in_section_) {
    throw CkptError(std::string(what) + " outside a section");
  }
}

void StateWriter::begin_section(std::string_view tag) {
  if (finished_) throw CkptError("begin_section after finish()");
  if (in_section_) {
    throw CkptError("begin_section('" + std::string(tag) +
                    "') while section '" + tag_ + "' is open");
  }
  if (tag.empty() || tag.size() > 0xFFFF) {
    throw CkptError("section tag must be 1..65535 bytes");
  }
  tag_ = std::string(tag);
  payload_.clear();
  in_section_ = true;
}

void StateWriter::end_section() {
  require_section("end_section");
  // begin_section rejects tags past 0xFFFF, so the u16 cannot wrap.
  append_pod(buf_, static_cast<std::uint16_t>(tag_.size()));  /*narrow:ok*/
  append(buf_, tag_.data(), tag_.size());
  append_pod(buf_, static_cast<std::uint64_t>(payload_.size()));
  append_pod(buf_, crc32(payload_.data(), payload_.size()));
  append(buf_, payload_.data(), payload_.size());
  in_section_ = false;
}

void StateWriter::u8(std::uint8_t v) {
  require_section("u8");
  payload_.push_back(v);
}
void StateWriter::u32(std::uint32_t v) {
  require_section("u32");
  append_pod(payload_, v);
}
void StateWriter::u64(std::uint64_t v) {
  require_section("u64");
  append_pod(payload_, v);
}
void StateWriter::i64(std::int64_t v) {
  require_section("i64");
  append_pod(payload_, v);
}
void StateWriter::f64(double v) {
  require_section("f64");
  append_pod(payload_, v);
}
void StateWriter::boolean(bool v) { u8(v ? 1 : 0); }

void StateWriter::str(std::string_view s) {
  require_section("str");
  if (s.size() > 0xFFFF'FFFFull) {
    throw CkptError("str() payload exceeds the u32 length prefix");
  }
  append_pod(payload_, static_cast<std::uint32_t>(s.size()));
  append(payload_, s.data(), s.size());
}

void StateWriter::bytes(const void* data, std::size_t len) {
  require_section("bytes");
  append(payload_, data, len);
}

void StateWriter::fail(const std::string& message) const {
  throw CkptError("section '" + tag_ + "': " + message);
}

std::vector<std::uint8_t> StateWriter::finish() {
  if (in_section_) {
    throw CkptError("finish() while section '" + tag_ + "' is open");
  }
  finished_ = true;
  return std::move(buf_);
}

StateReader::StateReader(std::vector<std::uint8_t> data)
    : data_(std::move(data)) {
  if (data_.size() < sizeof(kSnapshotMagic) + sizeof(kSnapshotVersion)) {
    throw CkptError("snapshot truncated: shorter than the header");
  }
  std::uint64_t magic = 0;
  std::memcpy(&magic, data_.data(), sizeof(magic));
  if (magic != kSnapshotMagic) {
    throw CkptError("not a gpuqos snapshot (bad magic)");
  }
  std::uint32_t version = 0;
  std::memcpy(&version, data_.data() + sizeof(magic), sizeof(version));
  if (version != kSnapshotVersion) {
    throw CkptError("unsupported snapshot version " + std::to_string(version) +
                    " (this build reads version " +
                    std::to_string(kSnapshotVersion) + ")");
  }
  pos_ = sizeof(magic) + sizeof(version);
  sect_end_ = pos_;  // no section current yet
}

void StateReader::need(std::size_t n) const {
  if (pos_ + n > sect_end_) {
    throw CkptError("section '" + tag_ + "' truncated: read of " +
                    std::to_string(n) + " bytes overruns the payload");
  }
}

bool StateReader::next_section() {
  // Skip whatever remains of the current section's payload (forward compat:
  // unknown or partially-read sections are stepped over, not parsed).
  pos_ = sect_end_;
  if (pos_ == data_.size()) return false;

  auto raw = [&](void* out, std::size_t n, const char* what) {
    if (pos_ + n > data_.size()) {
      throw CkptError(std::string("snapshot truncated while reading ") + what);
    }
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  };
  std::uint16_t tag_len = 0;
  raw(&tag_len, sizeof(tag_len), "a section tag length");
  if (tag_len == 0) throw CkptError("corrupt snapshot: empty section tag");
  if (pos_ + tag_len > data_.size()) {
    throw CkptError("snapshot truncated while reading a section tag");
  }
  tag_.assign(reinterpret_cast<const char*>(data_.data() + pos_), tag_len);
  pos_ += tag_len;

  std::uint64_t payload_len = 0;
  std::uint32_t crc = 0;
  raw(&payload_len, sizeof(payload_len),
      ("section '" + tag_ + "' length").c_str());
  raw(&crc, sizeof(crc), ("section '" + tag_ + "' checksum").c_str());
  if (payload_len > data_.size() - pos_) {
    throw CkptError("snapshot truncated: section '" + tag_ + "' claims " +
                    std::to_string(payload_len) + " payload bytes but only " +
                    std::to_string(data_.size() - pos_) + " remain");
  }
  const std::uint32_t actual = crc32(data_.data() + pos_, payload_len);
  if (actual != crc) {
    throw CkptError("section '" + tag_ + "' is corrupt (CRC mismatch)");
  }
  sect_end_ = pos_ + payload_len;
  return true;
}

std::uint8_t StateReader::u8() {
  need(1);
  return data_[pos_++];
}
std::uint32_t StateReader::u32() {
  need(4);
  std::uint32_t v = 0;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  return v;
}
std::uint64_t StateReader::u64() {
  need(8);
  std::uint64_t v = 0;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}
std::int64_t StateReader::i64() {
  need(8);
  std::int64_t v = 0;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}
double StateReader::f64() {
  need(8);
  double v = 0;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}
bool StateReader::boolean() { return u8() != 0; }

std::string StateReader::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return s;
}

void StateReader::bytes(void* out, std::size_t len) {
  need(len);
  std::memcpy(out, data_.data() + pos_, len);
  pos_ += len;
}

void StateReader::expect_size(std::uint64_t size, std::string_view what) {
  const std::uint64_t n = u64();
  if (n != size) {
    fail(std::string(what) + " mismatch (snapshot has " + std::to_string(n) +
         ", this run has " + std::to_string(size) + ")");
  }
}

std::uint64_t StateReader::read_length() {
  const std::uint64_t n = u64();
  if (n > remaining()) {
    fail("length " + std::to_string(n) + " overruns the payload (" +
         std::to_string(remaining()) + " bytes left)");
  }
  return n;
}

void StateReader::expect_section_end() const {
  if (pos_ != sect_end_) {
    throw CkptError("section '" + tag_ + "' has " +
                    std::to_string(sect_end_ - pos_) +
                    " unconsumed bytes after load (format mismatch)");
  }
}

void StateReader::fail(const std::string& message) const {
  throw CkptError("section '" + tag_ + "': " + message);
}

void write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& data) {
  // Atomic-ish: write to a sibling temp file and rename over the target so a
  // crash mid-write never leaves a torn snapshot under the final name.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) throw CkptError("cannot open '" + tmp + "' for writing");
  const std::size_t written = std::fwrite(data.data(), 1, data.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != data.size() || !flushed) {
    std::remove(tmp.c_str());
    throw CkptError("short write to '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CkptError("cannot rename '" + tmp + "' to '" + path + "'");
  }
}

std::vector<std::uint8_t> read_snapshot_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw CkptError("cannot open snapshot '" + path + "'");
  std::vector<std::uint8_t> data;
  std::array<std::uint8_t, 65536> chunk{};
  std::size_t n = 0;
  while ((n = std::fread(chunk.data(), 1, chunk.size(), f)) > 0) {
    data.insert(data.end(), chunk.begin(), chunk.begin() + n);
  }
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) throw CkptError("read error on snapshot '" + path + "'");
  return data;
}

}  // namespace gpuqos::ckpt
