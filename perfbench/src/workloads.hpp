// The benchmark's four workloads and the standalone layer drives.
//
// Every workload is a fixed amount of simulated work: a fixed warm-up, then
// a timed window of a fixed number of cycles split into fixed-cycle slices.
// Nothing depends on host speed, so both sides of a comparison simulate the
// same cycles. Models and stimulus are pure functions of the seed.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "spans.hpp"
#include "xtsoc/cosim/cosim.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  int threads;             ///< CoSimConfig::threads (campaign: campaign threads)
  std::uint64_t warmup;    ///< untimed cycles before the window
  std::uint64_t window;    ///< timed cycles (campaign: per run, both halves)
  std::uint64_t slice;     ///< cycles per timed run_cycles call
  int variants;            ///< seeds the samples cycle through
};

const Workload* find_workload(std::string_view name);

/// The seed of variant v of a run's seed; variant 0 is the seed itself.
std::uint64_t variant_seed(std::uint64_t seed, int v);

/// Cumulative exact counts read from CoSimulation::report() at one instant.
/// Level fields (high-water marks, latency max) are maxima, not sums.
struct Counts {
  std::uint64_t cycles = 0;
  std::uint64_t hw_dispatches = 0, hw_ops = 0, hw_queue_high_water = 0;
  std::uint64_t sw_dispatches = 0, sw_ops = 0, sw_queue_high_water = 0;
  std::uint64_t delta_cycles = 0, process_activations = 0, wire_commits = 0;
  std::uint64_t frames_sent = 0, frames_delivered = 0, flits = 0;
  std::uint64_t payload_bytes = 0, lat_count = 0, lat_total = 0, lat_max = 0;
  std::uint64_t credit_stalls = 0, bus_frames = 0;
  std::uint64_t loads = 0, stores = 0, hits = 0, misses = 0;
  std::uint64_t writebacks = 0, invalidations = 0, dram_reads = 0;
  std::uint64_t dram_writes = 0, dram_row_hits = 0, coh_flits = 0;
  std::uint64_t load_use_sum = 0, load_use_count = 0;
  std::uint64_t fault_injected = 0, retransmissions = 0, crc_rejects = 0;
  std::uint64_t frames_lost = 0;

  /// Accesses issued but not yet resolved by the timing layer.
  std::uint64_t mem_backlog() const { return loads + stores - hits - misses; }
  /// Cumulative fields subtract; level fields keep this side's value.
  Counts minus(const Counts& earlier) const;
  /// Campaign aggregation: cumulative fields add; level fields take the max.
  void add(const Counts& other);
};

/// One timed sample: a fresh set-up, a warm-up and the timed window.
struct Sample {
  double build_s = 0;      ///< core::Project::from_domain
  double elaborate_s = 0;  ///< Project::make_cosim
  double populate_s = 0;   ///< create + inject
  double window_s = 0;     ///< host seconds of the timed window
  std::uint64_t timed_cycles = 0;
  std::vector<double> slice_s;  ///< per slice (campaign: one, the window)
  Counts start, mid, end;  ///< at window start, midpoint and end
  xtsoc::cosim::CoSimulation::PhaseSeconds phases;  ///< over the window
  int window = 1;          ///< CoSimulation::window()
  bool has_fabric = false;
  bool has_mem = false;
  std::uint64_t runs = 0, survivors = 0;  ///< campaign only
  std::string fingerprint;
  std::string error;  ///< why the outputs failed their check; empty if fine

  double setup_s() const { return build_s + elaborate_s + populate_s; }
};

enum class Model {
  kSteady,  ///< the token-conserving workload model
  kLeaky,   ///< the mesh model that re-arms AND forwards (guard self-test)
};

/// Build, warm and time one sample of `w` at `threads`. Throws on any
/// library error.
Sample run_sample(const Workload& w, std::uint64_t seed, int threads,
                  Model model, Tracer& tracer);

/// Host seconds of one set-up alone (project build, elaboration, create,
/// inject), with nothing simulated afterwards.
double setup_seconds(const Workload& w, std::uint64_t seed, Tracer& tracer);

// --- standalone layer drives (traced runs only) ------------------------------
// Each drives one layer outside the co-simulation and returns nothing: the
// host time is read back from the spans it records.

/// Abstract runtime::Executor running the workload's own actions; returns
/// the interpreter ops executed inside the "runtime.Executor::step" span.
std::uint64_t drive_executor(const Workload& w, std::uint64_t seed,
                             Tracer& tracer);
/// noc::Fabric of the workload's shape fed by noc::TrafficGen at the
/// workload's measured frame rate; returns the ticks spanned
/// ("noc.Fabric::tick"), 0 when the workload has no fabric.
std::uint64_t drive_fabric(const Workload& w, std::uint64_t seed,
                           const Sample& s, Tracer& tracer);
/// mem::System fed the workload's access pattern at its measured rate;
/// returns the ticks spanned ("mem.System::tick"), 0 without memory.
std::uint64_t drive_mem(const Workload& w, const Sample& s, Tracer& tracer);

}  // namespace perfbench
