#include "workloads/spec.hpp"

#include <map>
#include <stdexcept>

#include "common/units.hpp"

namespace gpuqos {
namespace {

std::map<int, SpecProfile> build_profiles() {
  std::map<int, SpecProfile> p;
  // name, id, mem_frac, store_frac, dep_frac, llc_apki, stream_frac,
  // llc_ws, stream_bytes. APKI classes follow the published SPEC CPU 2006
  // memory characterizations (working sets scaled 1/8 for the 2 MB LLC).
  auto add = [&p](const char* name, int id, double mem, double st, double dep,
                  double apki, double stream, std::uint64_t llc_ws,
                  std::uint64_t sb) {
    SpecProfile s;
    s.name = name;
    s.spec_id = id;
    s.mem_op_fraction = mem;
    s.store_fraction = st;
    s.dependent_fraction = dep;
    s.llc_apki = apki;
    s.stream_fraction = stream;
    s.llc_ws_bytes = llc_ws;
    s.stream_bytes = sb;
    p[id] = s;
  };
  // Integer, cache-friendly-to-moderate.
  add("401.bzip2", 401, 0.34, 0.30, 0.10, 4.0, 0.02, 192 * KiB, 4 * MiB);
  add("403.gcc", 403, 0.38, 0.32, 0.12, 6.0, 0.02, 256 * KiB, 2 * MiB);
  // Floating-point streaming, bandwidth hungry.
  add("410.bwaves", 410, 0.42, 0.22, 0.04, 18.0, 0.40, 128 * KiB, 24 * MiB);
  // Pointer chasing, very high MPKI, latency sensitive.
  add("429.mcf", 429, 0.36, 0.25, 0.30, 28.0, 0.02, 768 * KiB, 8 * MiB);
  add("433.milc", 433, 0.40, 0.30, 0.05, 25.0, 0.35, 256 * KiB, 16 * MiB);
  add("434.zeusmp", 434, 0.36, 0.28, 0.06, 10.0, 0.25, 192 * KiB, 8 * MiB);
  add("437.leslie3d", 437, 0.44, 0.26, 0.05, 20.0, 0.35, 192 * KiB, 20 * MiB);
  // Mixed: large working set with irregular reuse.
  add("450.soplex", 450, 0.39, 0.24, 0.15, 16.0, 0.10, 512 * KiB, 6 * MiB);
  // Pure streaming, the classic bandwidth hog.
  add("462.libquantum", 462, 0.33, 0.20, 0.03, 28.0, 0.60, 64 * KiB, 32 * MiB);
  // Streaming with heavy store traffic.
  add("470.lbm", 470, 0.40, 0.45, 0.04, 24.0, 0.45, 96 * KiB, 28 * MiB);
  // Pointer chasing over a large heap.
  add("471.omnetpp", 471, 0.37, 0.30, 0.28, 14.0, 0.02, 512 * KiB, 6 * MiB);
  add("481.wrf", 481, 0.35, 0.28, 0.07, 8.0, 0.20, 192 * KiB, 10 * MiB);
  add("482.sphinx3", 482, 0.41, 0.12, 0.12, 13.0, 0.10, 256 * KiB, 6 * MiB);
  return p;
}

const std::map<int, SpecProfile>& profiles() {
  static const std::map<int, SpecProfile> p = build_profiles();
  return p;
}

}  // namespace

const SpecProfile& spec_profile(int spec_id) {
  return profiles().at(spec_id);
}

const std::vector<int>& spec_ids() {
  static const std::vector<int> ids = [] {
    std::vector<int> v;
    for (const auto& [id, prof] : profiles()) v.push_back(id);
    return v;
  }();
  return ids;
}

}  // namespace gpuqos
