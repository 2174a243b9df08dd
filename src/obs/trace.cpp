#include "obs/trace.hpp"

#include <ostream>

#include "common/jsonio.hpp"
#include "common/units.hpp"

namespace gpuqos {
namespace {

constexpr int kPid = 1;

double cycles_to_us(Cycle c) { return cycles_to_seconds(c) * 1e6; }

void render_event(std::ostream& os, const TraceWriter::Event& e, bool first) {
  if (!first) os << ",";
  os << "\n";
  if (e.ph == 'M') {
    // Metadata: process_name (tid 0) or thread_name.
    if (e.tid == 0) {
      os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPid
         << ",\"tid\":0,\"args\":{\"name\":\"" << json_escape(e.name)
         << "\"}}";
    } else {
      os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" << kPid
         << ",\"tid\":" << e.tid << ",\"args\":{\"name\":\""
         << json_escape(e.name) << "\"}}";
    }
    return;
  }
  os << "{\"name\":\"" << json_escape(e.name) << "\",\"ph\":\"" << e.ph
     << "\",\"ts\":" << json_double(cycles_to_us(e.ts)) << ",\"pid\":" << kPid
     << ",\"tid\":" << e.tid;
  if (e.ph == 'X') {
    os << ",\"dur\":" << json_double(cycles_to_us(e.ts + e.dur) -
                                     cycles_to_us(e.ts));
  }
  if (e.ph == 'C') {
    os << ",\"args\":{\"value\":" << json_double(e.value) << "}";
  } else if (!e.args.empty()) {
    os << ",\"args\":{" << e.args << "}";
  } else if (e.ph == 'i') {
    os << ",\"s\":\"g\"";
  }
  os << "}";
}

}  // namespace

void TraceWriter::complete(const std::string& name, int tid, Cycle start,
                           Cycle end, const std::string& args_json) {
  Event e;
  e.name = name;
  e.ph = 'X';
  e.ts = start;
  e.dur = end >= start ? end - start : 0;
  e.tid = tid;
  e.args = args_json;
  events_.push_back(std::move(e));
}

void TraceWriter::instant(const std::string& name, int tid, Cycle at,
                          const std::string& args_json) {
  Event e;
  e.name = name;
  e.ph = 'i';
  e.ts = at;
  e.tid = tid;
  e.args = args_json;
  events_.push_back(std::move(e));
}

void TraceWriter::counter(const std::string& name, Cycle at, double value) {
  Event e;
  e.name = name;
  e.ph = 'C';
  e.ts = at;
  e.tid = kTidControl;
  e.value = value;
  events_.push_back(std::move(e));
}

void TraceWriter::name_process(const std::string& name) {
  Event e;
  e.name = name;
  e.ph = 'M';
  events_.push_back(std::move(e));
}

void TraceWriter::name_thread(int tid, const std::string& name) {
  Event e;
  e.name = name;
  e.ph = 'M';
  e.tid = tid;
  events_.push_back(std::move(e));
}

void TraceWriter::write(std::ostream& os) const {
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Event& e : events_) {
    render_event(os, e, first);
    first = false;
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace gpuqos
