#include "sim/sweep.hpp"

#include <cstdlib>

namespace gpuqos {

unsigned sweep_thread_count(std::size_t jobs) {
  unsigned threads = 0;
  if (const char* env = std::getenv("GPUQOS_THREADS")) {
    threads = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads > jobs) threads = static_cast<unsigned>(jobs);
  if (threads == 0) threads = 1;
  return threads;
}

}  // namespace gpuqos
