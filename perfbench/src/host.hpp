// Host record attached to every result set: what the machine offered while
// the benchmark ran, measured rather than assumed.
#pragma once

#include <string>

#include "xtsoc/obs/json.hpp"

namespace perfbench {

struct HostRecord {
  unsigned hardware_concurrency = 0;
  /// Usable cores at 1, 2 and 4 threads: k * t(1) / t(k), where t(k) is
  /// the wall time for k threads to each run the same fixed compute kernel.
  double usable[3] = {0, 0, 0};
  std::string compiler;
  std::string build_type;

  xtsoc::obs::JsonValue to_json() const;
};

HostRecord measure_host();

/// The host's clock, read from the fastest of many timings of a dependent
/// chain of single-cycle integer operations (6 cycles per iteration).
///
/// The shared build host's clock stepped between 3.0 and 2.5 GHz over
/// minutes as its load changed, and every wall time moved with it (up to
/// 0.27 IQR/median over eight runs). Host times converted to a fixed
/// reference clock take most of that out: a run at 2.5 GHz reads as it would
/// at 3.0.
class ClockProbe {
public:
  /// The build host's fastest clock; converted times are at this clock.
  static constexpr double kReferenceGhz = 3.0;

  /// Time the chain once; keep the fastest timing.
  void sample();
  /// Fastest clock seen so far, in GHz (0 before the first sample).
  double ghz() const;
  /// `s` host seconds at ghz(), converted to kReferenceGhz.
  double to_reference(double s) const { return s * ghz() / kReferenceGhz; }

private:
  double best_ns_ = 0;
};

}  // namespace perfbench
