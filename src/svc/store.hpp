// Persistent content-addressed result store (docs/SERVICE.md §store).
//
// Layout: one file per job, `<dir>/<16-hex job_key>.gqr`, holding the
// CRC-guarded container from result_io. Lookups decode + validate, so a
// corrupt or mismatched file behaves as a miss (and is logged), never as a
// silently-served wrong result. Writes go through tmp + rename, so a process
// killed mid-write leaves either the old file or none — which is what makes
// crash-resume work: after a restart, every job that finished before the kill
// is served from here without re-simulation. Temp names are unique per
// process and per write, so any number of processes (or stores in one
// process) may share a directory.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "svc/jobspec.hpp"

namespace gpuqos::svc {

class ResultStore {
 public:
  /// `dir` is created if missing (empty string = store disabled: every get
  /// misses and puts are dropped, for pure in-memory runs).
  explicit ResultStore(std::string dir);

  /// Stored container bytes for this job, already CRC- and identity-checked
  /// against `spec`; nullopt on miss or on a corrupt/mismatched file.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      const JobSpec& spec);

  /// Persist encoded result bytes for this job (atomic tmp + rename).
  void put(const JobSpec& spec, const std::vector<std::uint8_t>& bytes);

  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] bool enabled() const { return !dir_.empty(); }

  // Lifetime counters (monotonic, readable from any thread).
  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t rejects() const;  // corrupt/mismatched files

 private:
  [[nodiscard]] std::string path_for(const JobSpec& spec) const;

  std::string dir_;
  mutable std::mutex mu_;  // guards the counters
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t rejects_ = 0;
};

}  // namespace gpuqos::svc
