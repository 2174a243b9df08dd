// Chrome trace-event JSON writer (Perfetto / chrome://tracing loadable).
//
// Events accumulate in memory and are serialized once at end of run with
// write(). Timestamps are simulation base cycles converted to microseconds of
// simulated time (4 GHz base clock), so span widths in the viewer correspond
// to simulated wall-clock time.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace gpuqos {

class TraceWriter {
 public:
  struct Event {
    std::string name;
    char ph = 'X';
    Cycle ts = 0;
    Cycle dur = 0;       // complete events only
    int tid = 0;
    std::string args;    // raw JSON object body, may be empty
    double value = 0.0;  // counter events only
  };

  /// Track ids used by the telemetry layer (thread rows in the viewer).
  static constexpr int kTidFrames = 1;    // GPU frame spans
  static constexpr int kTidThrottle = 2;  // ATU throttle windows
  static constexpr int kTidPrio = 3;      // DRAM CPU-priority mode
  static constexpr int kTidControl = 4;   // governor markers / counters
  static constexpr int kTidLog = 5;       // GPUQOS_LOG messages

  /// Complete event ("ph":"X") spanning [start, end] base cycles.
  /// `args_json` is a raw JSON object body ("\"k\":1") or empty.
  void complete(const std::string& name, int tid, Cycle start, Cycle end,
                const std::string& args_json = "");

  /// Instant event ("ph":"i").
  void instant(const std::string& name, int tid, Cycle at,
               const std::string& args_json = "");

  /// Counter event ("ph":"C"): one series `name` with value `value`.
  void counter(const std::string& name, Cycle at, double value);

  /// Metadata: name the process / a thread row.
  void name_process(const std::string& name);
  void name_thread(int tid, const std::string& name);

  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Serialize as {"traceEvents":[...],"displayTimeUnit":"ms"}.
  void write(std::ostream& os) const;

 private:
  std::vector<Event> events_;
};

}  // namespace gpuqos
