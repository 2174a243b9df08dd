#include "svc/store.hpp"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <filesystem>

#include "ckpt/state_io.hpp"
#include "svc/result_io.hpp"

namespace gpuqos::svc {
namespace {

/// Process-wide, so two stores on one directory never pick the same name.
std::uint64_t next_tmp_seq() {
  static std::atomic<std::uint64_t> seq{0};
  return seq++;
}

}  // namespace

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  if (!dir_.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
      throw ckpt::CkptError("result store: cannot create '" + dir_ +
                            "': " + ec.message());
    }
  }
}

std::string ResultStore::path_for(const JobSpec& spec) const {
  return dir_ + "/" + job_key_hex(spec) + ".gqr";
}

std::optional<std::vector<std::uint8_t>> ResultStore::get(const JobSpec& spec) {
  if (!enabled()) return std::nullopt;
  const std::string path = path_for(spec);
  if (!std::filesystem::exists(path)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++misses_;
    return std::nullopt;
  }
  try {
    std::vector<std::uint8_t> bytes = ckpt::read_snapshot_file(path);
    (void)decode_result(spec, bytes);  // full CRC + identity validation
    std::lock_guard<std::mutex> lock(mu_);
    ++hits_;
    return bytes;
  } catch (const ckpt::CkptError& e) {
    // Corruption or a key collision: treat as a miss so the job re-runs and
    // put() overwrites the bad file. Never serve unvalidated bytes.
    std::fprintf(stderr, "[svc.store] rejecting %s: %s\n", path.c_str(),
                 e.what());
    std::lock_guard<std::mutex> lock(mu_);
    ++rejects_;
    ++misses_;
    return std::nullopt;
  }
}

void ResultStore::put(const JobSpec& spec, const std::vector<std::uint8_t>& bytes) {
  if (!enabled()) return;
  // The pid separates processes sharing the directory; "x" (exclusive
  // create) skips a name left behind by a killed process with the same pid.
  std::string tmp;
  std::FILE* f = nullptr;
  while (f == nullptr) {
    tmp = dir_ + "/.put." + std::to_string(::getpid()) + "." +
          std::to_string(next_tmp_seq()) + ".tmp";
    f = std::fopen(tmp.c_str(), "wbx");
    if (f == nullptr && errno != EEXIST) {
      throw ckpt::CkptError("result store: cannot open '" + tmp + "'");
    }
  }
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool flushed = std::fclose(f) == 0;
  if (written != bytes.size() || !flushed) {
    std::remove(tmp.c_str());
    throw ckpt::CkptError("result store: short write to '" + tmp + "'");
  }
  const std::string path = path_for(spec);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw ckpt::CkptError("result store: cannot rename '" + tmp + "' to '" +
                          path + "'");
  }
}

std::uint64_t ResultStore::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}
std::uint64_t ResultStore::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}
std::uint64_t ResultStore::rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejects_;
}

}  // namespace gpuqos::svc
