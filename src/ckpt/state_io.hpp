// Versioned binary snapshot format (docs/CHECKPOINT.md).
//
// A snapshot is a header (magic + format version) followed by a sequence of
// tagged sections:
//
//   [u16 tag_len][tag bytes][u64 payload_len][u32 crc32][payload bytes]
//
// Each stateful module serializes into exactly one section. It lists its
// state once, in a `template <class IO> void visit_state(IO& io)` walk, and
// save(StateWriter&) and load(StateReader&) both forward to it. StateWriter
// and StateReader offer the same walk steps under the same names, so a
// snapshot is read back in exactly the order it was written:
//
//   io.u64(field)             a field by reference (u8 u32 u64 i64 f64
//                             boolean str); the reader assigns it
//   io.expect_size(n, what)   a size the reader already has; a mismatch fails
//   io.length(container)      a container's length; the reader resizes to it
//   io.enum_u8(e)             an enum stored as one byte
//   io.sub(obj)               a sub-object's own save()/load()
//   io.map(m, value_fn)       a string-keyed map, each value through value_fn
//   io.require(ok, what)      a precondition; false throws on either side
//
// `IO::kLoading` tells the two apart where a walk must (Engine's tickers).
// The CRC is over the payload, so corruption is pinned to a module. Readers
// iterate sections in order and skip tags they do not recognise, which is
// what makes the format forward-compatible: a new module adds a new section
// and old readers step over it.
//
// Every malformed condition — truncation, bad magic, wrong version, CRC
// mismatch, a module reading past its section, a container length past the
// bytes left in its section, a module leaving bytes unconsumed — throws
// CkptError with a message naming the section, rather than asserting,
// allocating without bound or reading garbage.
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

  // The remaining walk steps (see the file comment); StateReader has a
  // reading twin of each.
  static constexpr bool kLoading = false;
  void expect_size(std::uint64_t size, std::string_view) { u64(size); }
  template <class Container>
  void length(const Container& c) { u64(c.size()); }
  template <class Enum>
  void enum_u8(Enum e) { u8(static_cast<std::uint8_t>(e)); }
  template <class T>
  void sub(T& obj) { obj.save(*this); }
  template <class Map, class Fn>
  void map(Map& m, Fn&& value) {
    u64(m.size());
    for (auto& [key, v] : m) {
      str(key);
      value(v);
    }
  }
  void require(bool ok, std::string_view what) const {
    if (!ok) fail(std::string(what));
  }
  /// Throw CkptError("section '<tag>': <message>").
  [[noreturn]] void fail(const std::string& message) const;

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

  // Walk steps: the reading twin of each StateWriter step.
  static constexpr bool kLoading = true;
  void u8(std::uint8_t& v) { v = u8(); }
  void u32(std::uint32_t& v) { v = u32(); }
  void u64(std::uint64_t& v) { v = u64(); }
  void i64(std::int64_t& v) { v = i64(); }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void str(std::string& s) { s = str(); }
  /// Read a size and fail unless it equals `size`, the one this run has.
  void expect_size(std::uint64_t size, std::string_view what);
  template <class Container>
  void length(Container& c) {
    const std::uint64_t n = read_length();
    c.clear();
    c.resize(n);
  }
  template <class Enum>
  void enum_u8(Enum& e) { e = static_cast<Enum>(u8()); }
  template <class T>
  void sub(T& obj) { obj.load(*this); }
  /// Assigns into `m` key by key; entries the snapshot lacks are kept.
  template <class Map, class Fn>
  void map(Map& m, Fn&& value) {
    const std::uint64_t n = read_length();
    for (std::uint64_t i = 0; i < n; ++i) value(m[str()]);
  }
  void require(bool ok, std::string_view what) const {
    if (!ok) fail(std::string(what));
  }

  /// Bytes left in the current section's payload.
  [[nodiscard]] std::size_t remaining() const { return sect_end_ - pos_; }

  /// Assert the current section was fully consumed; a module that leaves
  /// bytes behind mis-parsed (or the snapshot came from a newer writer whose
  /// extra trailing fields it should have versioned).
  void expect_section_end() const;

  /// Throw CkptError("section '<tag>': <message>").
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void need(std::size_t n) const;
  /// A container length, checked against the bytes left in the section
  /// before anything is sized from it: every element takes at least one.
  std::uint64_t read_length();

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
