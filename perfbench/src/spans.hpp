// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded from the harness's own code around each public call
// into an xtsoc layer (Project::from_domain, make_cosim, inject,
// run_cycles, the standalone Executor/Fabric/mem::System drives). Nothing
// inside the library is instrumented. Spans stay in memory and are written
// once, as a Chrome trace, when the run ends; the per-layer host times are
// derived from them.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";  ///< static string: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int id = 0;
  int parent = -1;  ///< enclosing span on the same thread, -1 at top level
  int sample = -1;  ///< sample index the span belongs to
  std::uint64_t tid = 0;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
public:
  /// Spans are recorded only while enabled; a disabled tracer costs one
  /// branch per scope.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_sample(int s) { sample_ = s; }

  int begin(const char* name);
  void end(int id);

  /// Summed duration (ns) and count of spans named `name`.
  struct Total {
    double ns = 0;
    std::uint64_t count = 0;
  };
  Total total(const std::string& name) const;
  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> durations(const std::string& name) const;

  /// Chrome trace ("X" events; parent id and sample in args).
  std::string to_chrome_json() const;

private:
  bool enabled_ = false;
  int sample_ = -1;
  std::mutex mu_;  // guards spans_ (campaign runs record from pool threads)
  std::vector<Span> spans_;
};

/// RAII span: records [construction, destruction) when the tracer is on.
class Scope {
public:
  Scope(Tracer& t, const char* name) : t_(t), id_(t.enabled() ? t.begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) t_.end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

private:
  Tracer& t_;
  int id_;
};

}  // namespace perfbench
