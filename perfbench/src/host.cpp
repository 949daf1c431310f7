#include "host.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace perfbench {

namespace {

std::atomic<std::uint64_t> g_sink{0};

/// A dependent chain of 6 single-cycle integer operations per iteration,
/// with no memory traffic.
void chain(int iterations) {
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_sink.fetch_add(x, std::memory_order_relaxed);
}

/// Fixed integer work: its wall time at k threads against 1 thread
/// measures how many cores the host actually gives us.
void kernel() { chain(20'000'000); }

double wall_for(int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  for (int i = 0; i < threads; ++i) pool.emplace_back(kernel);
  for (std::thread& t : pool) t.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

constexpr int kChainIterations = 20'000;

}  // namespace

void ClockProbe::sample() {
  const auto t0 = std::chrono::steady_clock::now();
  chain(kChainIterations);
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  if (best_ns_ == 0 || ns < best_ns_) best_ns_ = ns;
}

double ClockProbe::ghz() const {
  return best_ns_ == 0 ? 0.0 : 6.0 * kChainIterations / best_ns_;
}

HostRecord measure_host() {
  HostRecord h;
  h.hardware_concurrency = std::thread::hardware_concurrency();
  h.compiler = PERFBENCH_COMPILER;
  h.build_type = PERFBENCH_BUILD_TYPE;
  const int counts[3] = {1, 2, 4};
  double best[3] = {1e30, 1e30, 1e30};
  for (int rep = 0; rep < 3; ++rep) {
    for (int i = 0; i < 3; ++i) best[i] = std::min(best[i], wall_for(counts[i]));
  }
  for (int i = 0; i < 3; ++i) h.usable[i] = counts[i] * best[0] / best[i];
  return h;
}

xtsoc::obs::JsonValue HostRecord::to_json() const {
  xtsoc::obs::JsonValue v = xtsoc::obs::JsonValue::object();
  v["hardware_concurrency"] = hardware_concurrency;
  v["usable_cores_1"] = usable[0];
  v["usable_cores_2"] = usable[1];
  v["usable_cores_4"] = usable[2];
  v["compiler"] = compiler;
  v["build_type"] = build_type;
  return v;
}

}  // namespace perfbench
