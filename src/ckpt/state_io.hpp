// Versioned binary snapshot format (docs/CHECKPOINT.md).
//
// A snapshot is a header (magic + format version) followed by a sequence of
// tagged sections:
//
//   [u16 tag_len][tag bytes][u64 payload_len][u32 crc32][payload bytes]
//
// Each stateful module serializes into exactly one section via
// save(StateWriter&) and restores from it via load(StateReader&). The CRC is
// over the payload, so corruption is pinned to a module. Readers iterate
// sections in order and skip tags they do not recognise, which is what makes
// the format forward-compatible: a new module adds a new section and old
// readers step over it.
//
// Every malformed condition — truncation, bad magic, wrong version, CRC
// mismatch, a module reading past its section, a module leaving bytes
// unconsumed — throws CkptError with a message naming the section, rather
// than asserting or reading garbage.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace gpuqos::ckpt {

/// Any failure to write, parse, or validate a snapshot. Callers (CLI, tests)
/// catch this to fail gracefully with the message.
class CkptError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// CRC-32 (IEEE 802.3 polynomial) of a byte range.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len);

inline constexpr std::uint64_t kSnapshotMagic = 0x4750'5551'4F53'434Bull;
inline constexpr std::uint32_t kSnapshotVersion = 1;

class StateWriter {
 public:
  StateWriter();

  /// Open a tagged section; all primitive writes go into its payload until
  /// end_section() seals it (length + CRC). Sections do not nest.
  void begin_section(std::string_view tag);
  void end_section();

  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void boolean(bool v);
  void str(std::string_view s);
  void bytes(const void* data, std::size_t len);

  /// Seal the buffer and return it. The writer must not be reused after.
  [[nodiscard]] std::vector<std::uint8_t> finish();

 private:
  void require_section(const char* what) const;

  std::vector<std::uint8_t> buf_;      // header + sealed sections
  std::vector<std::uint8_t> payload_;  // current open section
  std::string tag_;
  bool in_section_ = false;
  bool finished_ = false;
};

class StateReader {
 public:
  /// Takes ownership of a snapshot byte buffer; validates magic + version.
  explicit StateReader(std::vector<std::uint8_t> data);

  /// Advance to the next section (validating framing + CRC) and make its
  /// payload current. Returns false at end of snapshot.
  [[nodiscard]] bool next_section();
  [[nodiscard]] const std::string& tag() const { return tag_; }

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  bool boolean();
  std::string str();
  void bytes(void* out, std::size_t len);

  /// Bytes left in the current section's payload.
  [[nodiscard]] std::size_t remaining() const { return sect_end_ - pos_; }

  /// Assert the current section was fully consumed; a module that leaves
  /// bytes behind mis-parsed (or the snapshot came from a newer writer whose
  /// extra trailing fields it should have versioned).
  void expect_section_end() const;

  /// Throw CkptError("<context>: ...") helpers for load-time validation.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void need(std::size_t n) const;

  std::vector<std::uint8_t> data_;
  std::size_t pos_ = 0;       // read cursor (inside current section payload)
  std::size_t sect_end_ = 0;  // end of current section payload
  std::string tag_;
};

/// Whole-snapshot file helpers. Throw CkptError on any I/O failure.
void write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& data);
[[nodiscard]] std::vector<std::uint8_t> read_snapshot_file(
    const std::string& path);

}  // namespace gpuqos::ckpt
