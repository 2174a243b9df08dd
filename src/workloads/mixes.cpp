#include "workloads/mixes.hpp"

#include <stdexcept>

namespace gpuqos {
namespace {

std::vector<HeteroMix> build_m() {
  return {
      {"M1", "3DMark06GT1", {403, 450, 481, 482}},
      {"M2", "3DMark06GT2", {403, 429, 434, 462}},
      {"M3", "3DMark06HDR1", {401, 437, 450, 470}},
      {"M4", "3DMark06HDR2", {401, 462, 470, 471}},
      {"M5", "COD2", {401, 437, 450, 470}},
      {"M6", "Crysis", {429, 433, 434, 482}},
      {"M7", "DOOM3", {410, 433, 462, 471}},
      {"M8", "HL2", {410, 429, 433, 434}},
      {"M9", "L4D", {410, 433, 462, 471}},
      {"M10", "NFS", {410, 429, 433, 471}},
      {"M11", "Quake4", {401, 437, 450, 481}},
      {"M12", "COR", {403, 437, 450, 481}},
      {"M13", "UT2004", {401, 437, 462, 470}},
      {"M14", "UT3", {403, 437, 450, 481}},
  };
}

std::vector<HeteroMix> build_w() {
  return {
      {"W1", "3DMark06GT1", {481}},
      {"W2", "3DMark06GT2", {471}},
      {"W3", "3DMark06HDR1", {470}},
      {"W4", "3DMark06HDR2", {482}},
      {"W5", "COD2", {470}},
      {"W6", "Crysis", {429}},
      {"W7", "DOOM3", {462}},
      {"W8", "HL2", {403}},
      {"W9", "L4D", {462}},
      {"W10", "NFS", {437}},
      {"W11", "Quake4", {410}},
      {"W12", "COR", {434}},
      {"W13", "UT2004", {450}},
      {"W14", "UT3", {434}},
  };
}

}  // namespace

const std::vector<HeteroMix>& m_mixes() {
  static const std::vector<HeteroMix> m = build_m();
  return m;
}

const std::vector<HeteroMix>& w_mixes() {
  static const std::vector<HeteroMix> w = build_w();
  return w;
}

const HeteroMix& mix(const std::string& id) {
  for (const auto& m : m_mixes()) {
    if (m.id == id) return m;
  }
  for (const auto& w : w_mixes()) {
    if (w.id == id) return w;
  }
  throw std::out_of_range("unknown mix: " + id);
}

std::vector<HeteroMix> high_fps_mixes() {
  return {mix("M7"), mix("M8"), mix("M10"), mix("M11"), mix("M12"),
          mix("M13")};
}

std::vector<HeteroMix> low_fps_mixes() {
  return {mix("M1"), mix("M2"), mix("M3"), mix("M4"),
          mix("M5"), mix("M6"), mix("M9"), mix("M14")};
}

}  // namespace gpuqos
