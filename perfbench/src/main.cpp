// perfbench — the repository's co-simulation benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//   perfbench --workload <name> --seed <n> --reference-only
//   perfbench --selftest-guard
//
// One invocation runs one workload: a threads=1 reference sample per seed
// variant, then round(seconds) timed samples at the workload's thread
// count, cycling through the variants. Each sample
// is a fresh set-up of a fixed amount of simulated work (see
// workloads.hpp). The result document (one JSON line on stdout)
// carries the metrics, the sample fingerprints, the stationarity verdict
// and the host record; perfbench/run.py checks it against the committed
// goldens and prints the final verdict line.
//
// --trace 0 reports the end-to-end metrics from untraced samples. --trace 1
// records spans around every public call on alternate samples and derives
// the per-layer metrics from them; the untraced samples in between give the
// tracing overhead.

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "host.hpp"
#include "spans.hpp"
#include "workloads.hpp"
#include "xtsoc/obs/json.hpp"

namespace {

using namespace perfbench;
using xtsoc::obs::JsonValue;

// Before every sample the harness probes the host clock and (untraced)
// times a set-up this many times. Set-up takes 0.1-2.5 ms per workload; its
// median needs a few hundred repeats to settle, spread over the run like
// the samples.
constexpr int kSetupsPerSample = 16;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

/// Host seconds of the timed window at the host's fast speed.
///
/// The shared host's CPUs switch between a fast speed and ones up to about
/// 1.5x slower, in stretches of 0.1-1 s, and a sample spends much of its
/// window in one of them. Per-sample rates are then multimodal, and their
/// median moved between the modes from run to run. For each fixed-cycle
/// slice of the window, this takes the fastest time any sample of the run
/// ran it in, and sums those. The campaign's window is one slice: its wall
/// time.
double window_seconds(const std::vector<Sample>& ok) {
  double total = 0;
  for (std::size_t k = 0; k < ok.front().slice_s.size(); ++k) {
    double best = ok.front().slice_s[k];
    for (const Sample& s : ok) best = std::min(best, s.slice_s[k]);
    total += best;
  }
  return total;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Rotates the calling thread (and so the pools and campaign workers it
/// creates, which inherit its mask) over the CPUs the process may use:
/// measurement k runs on `threads` consecutive CPUs starting at k mod n.
/// The CPUs of a shared host do not run equally fast, and an unpinned
/// serial process tends to stay on one of them for its whole life; rotating
/// gives every run the same mixture instead of one CPU's luck.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&all_);
    pthread_getaffinity_np(pthread_self(), sizeof all_, &all_);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int k, int threads) {
    const int n = static_cast<int>(cpus_.size());
    if (n <= threads) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int t = 0; t < threads; ++t) {
      CPU_SET(cpus_[static_cast<std::size_t>((k + t) % n)], &set);
    }
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }

  void restore() { pthread_setaffinity_np(pthread_self(), sizeof all_, &all_); }

private:
  cpu_set_t all_;
  std::vector<int> cpus_;
};

// --- stationarity guard ----------------------------------------------------------
//
// The timed window is split in two equal halves. A steady workload does the
// same work in both: every exact per-cycle count agrees between the halves,
// mean NoC latency does not drift, and the levels that a leak would grow
// (executor queue high-water marks, the memory timing backlog) stop rising.

struct Check {
  std::string what;
  double first;   ///< first-half count, or the level at the midpoint
  double second;  ///< second-half count, or the level at the end
  bool ok;
};

/// Equal halves do the same work: within 10% plus 16 events of slack.
Check count_check(const char* what, std::uint64_t a, std::uint64_t b) {
  const auto x = static_cast<double>(a), y = static_cast<double>(b);
  return {what, x, y, std::fabs(x - y) <= 0.1 * std::max(x, y) + 16};
}

/// A level may wobble but must not keep rising: the end value may exceed
/// the midpoint value by at most a quarter, or 8.
Check level_check(const char* what, std::uint64_t mid, std::uint64_t end) {
  return {what, static_cast<double>(mid), static_cast<double>(end),
          end <= mid + std::max<std::uint64_t>(8, mid / 4)};
}

std::vector<Check> stationarity(const Sample& s) {
  const Counts a = s.mid.minus(s.start);
  const Counts b = s.end.minus(s.mid);
  const double la = ratio(a.lat_total, a.lat_count);
  const double lb = ratio(b.lat_total, b.lat_count);
  return {
      count_check("hw_dispatches", a.hw_dispatches, b.hw_dispatches),
      count_check("hw_ops", a.hw_ops, b.hw_ops),
      count_check("sw_dispatches", a.sw_dispatches, b.sw_dispatches),
      count_check("sw_ops", a.sw_ops, b.sw_ops),
      count_check("delta_cycles", a.delta_cycles, b.delta_cycles),
      count_check("process_activations", a.process_activations,
                  b.process_activations),
      count_check("wire_commits", a.wire_commits, b.wire_commits),
      count_check("flits", a.flits, b.flits),
      count_check("frames_delivered", a.frames_delivered, b.frames_delivered),
      count_check("bus_frames", a.bus_frames, b.bus_frames),
      count_check("mem_accesses", a.loads + a.stores, b.loads + b.stores),
      count_check("mem_misses", a.misses, b.misses),
      {"noc_latency_mean", la, lb, std::fabs(la - lb) <= 0.1 * std::max(la, lb) + 1.0},
      level_check("hw_queue_high_water", s.mid.hw_queue_high_water,
                  s.end.hw_queue_high_water),
      level_check("sw_queue_high_water", s.mid.sw_queue_high_water,
                  s.end.sw_queue_high_water),
      level_check("mem_backlog", s.mid.mem_backlog(), s.end.mem_backlog()),
  };
}

std::vector<std::string> failures(const std::vector<Check>& checks) {
  std::vector<std::string> out;
  for (const Check& c : checks) {
    if (!c.ok) {
      out.push_back(c.what + " " + std::to_string(c.first) + " -> " +
                    std::to_string(c.second));
    }
  }
  return out;
}

struct Metrics {
  JsonValue doc = JsonValue::object();
  void add(const char* name, double value, const char* unit) {
    JsonValue m = JsonValue::object();
    m["value"] = value;
    m["unit"] = unit;
    doc[name] = std::move(m);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool selftest_guard = false;
  bool reference_only = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") a.workload = val();
    else if (k == "--seed") a.seed = std::stoull(val());
    else if (k == "--seconds") a.seconds = std::stod(val());
    else if (k == "--trace") a.trace = std::stoi(val()) != 0;
    else if (k == "--trace-out") a.trace_out = val();
    else if (k == "--selftest-guard") a.selftest_guard = true;
    else if (k == "--reference-only") a.reference_only = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  return a;
}

/// Feed the guard the committed leaky mesh model and the steady one; the
/// guard must reject the first and pass the second.
int selftest_guard() {
  const Workload& w = *find_workload("mesh_compute");
  Tracer off;
  const auto leaky = failures(stationarity(run_sample(w, 1, 2, Model::kLeaky, off)));
  const auto steady = failures(stationarity(run_sample(w, 1, 2, Model::kSteady, off)));
  std::printf("leaky model: %s\n", leaky.empty() ? "passed (guard broken)" : "rejected");
  for (const auto& f : leaky) std::printf("  %s\n", f.c_str());
  std::printf("steady model: %s\n", steady.empty() ? "passed" : "rejected");
  for (const auto& f : steady) std::printf("  %s\n", f.c_str());
  return !leaky.empty() && steady.empty() ? 0 : 1;
}

int run(const Args& args) {
  const Workload* wp = find_workload(args.workload);
  if (wp == nullptr) throw std::invalid_argument("unknown workload " + args.workload);
  const Workload& w = *wp;
  if (args.reference_only) {
    Tracer off;
    const Sample ref = run_sample(w, args.seed, 1, Model::kSteady, off);
    if (!ref.error.empty()) throw std::runtime_error(ref.error);
    JsonValue doc = JsonValue::object();
    doc["reference_fingerprint"] = ref.fingerprint;
    JsonValue st = JsonValue::array();
    for (const std::string& f : failures(stationarity(ref))) st.push_back(f);
    doc["stationarity_failures"] = std::move(st);
    std::printf("%s\n", doc.dump().c_str());
    return 0;
  }
  const HostRecord host = measure_host();
  // One sample (about a second of host time on the 4-core build host) per
  // requested second: the work depends on --seconds only, never on speed.
  const int samples = std::max(3, static_cast<int>(std::lround(args.seconds)));

  Tracer tracer;
  std::uint64_t attempted = 0, failed = 0;
  JsonValue errors = JsonValue::array();
  auto fail = [&](const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  };

  // The threads=1 reference, per seed variant, that every timed sample of
  // that variant must reproduce exactly.
  std::vector<std::string> reference(static_cast<std::size_t>(w.variants));
  for (int v = 0; v < w.variants; ++v) {
    ++attempted;
    try {
      Sample ref = run_sample(w, variant_seed(args.seed, v), 1, Model::kSteady, tracer);
      reference[static_cast<std::size_t>(v)] = ref.fingerprint;
      if (!ref.error.empty()) fail("reference: " + ref.error);
    } catch (const std::exception& e) {
      fail(std::string("reference threw: ") + e.what());
    }
  }

  CpuRotation rotation;
  ClockProbe clock;
  std::vector<double> setup;
  int setup_runs = 0;
  auto between_samples = [&] {
    for (int j = 0; j < kSetupsPerSample; ++j, ++setup_runs) {
      rotation.pin(setup_runs, 1);
      clock.sample();
      if (args.trace) continue;
      ++attempted;
      try {
        setup.push_back(setup_seconds(w, args.seed, tracer));
      } catch (const std::exception& e) {
        fail(std::string("set-up threw: ") + e.what());
      }
    }
  };

  std::vector<Sample> ok;
  std::vector<bool> traced;
  std::vector<Check> guard;
  for (int i = 0; i < samples; ++i) {
    between_samples();
    ++attempted;
    // Traced runs alternate traced and untraced samples; keep each pair on
    // the same CPUs and seed so the tracing overhead compares like with like.
    const int pair = args.trace ? i / 2 : i;
    const auto v = static_cast<std::size_t>(pair % w.variants);
    rotation.pin(pair, w.threads);
    const bool on = args.trace && i % 2 == 0;
    tracer.set_enabled(on);
    tracer.set_sample(i);
    try {
      Sample s = run_sample(w, variant_seed(args.seed, static_cast<int>(v)),
                            w.threads, Model::kSteady, tracer);
      tracer.set_enabled(false);
      if (!s.error.empty()) {
        fail("sample " + std::to_string(i) + ": " + s.error);
        continue;
      }
      if (s.fingerprint != reference[v]) {
        fail("sample " + std::to_string(i) + ": fingerprint " + s.fingerprint +
             " != threads=1 reference " + reference[v]);
        continue;
      }
      if (guard.empty()) guard = stationarity(s);
      setup.push_back(s.setup_s());
      ok.push_back(std::move(s));
      traced.push_back(on);
    } catch (const std::exception& e) {
      tracer.set_enabled(false);
      fail("sample " + std::to_string(i) + " threw: " + e.what());
    }
  }
  rotation.restore();

  Metrics m;
  if (!ok.empty() && !args.trace) {
    m.add("sim_cycles_per_s",
          static_cast<double>(ok.front().timed_cycles) /
              clock.to_reference(window_seconds(ok)),
          "cycles/s");
    m.add("setup_s", clock.to_reference(median(setup)), "s");
    m.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else if (!ok.empty()) {
    // Per-layer split. Exact counts are identical in every sample (the
    // fingerprints matched), so the first one serves; host times come from
    // the traced samples' spans.
    const Sample& s0 = ok.front();
    const Counts d = s0.end.minus(s0.start);
    const std::uint64_t cyc = d.cycles;
    std::vector<double> win_on, win_off, pa, pb, pbd, lock;
    for (std::size_t i = 0; i < ok.size(); ++i) {
      const Sample& s = ok[i];
      (traced[i] ? win_on : win_off).push_back(s.window_s);
      if (!traced[i]) continue;
      const double c = static_cast<double>(s.timed_cycles);
      pa.push_back(s.phases.phase_a * 1e9 / c);
      pb.push_back(s.phases.phase_b * 1e9 / c);
      pbd.push_back(s.phases.boundary * 1e9 / c);
      lock.push_back(s.window == 1 ? s.window_s * 1e9 / c : 0.0);
    }
    tracer.set_enabled(true);
    tracer.set_sample(-1);
    const std::uint64_t ops = drive_executor(w, args.seed, tracer);
    const std::uint64_t fticks = drive_fabric(w, args.seed, s0, tracer);
    const std::uint64_t mticks = drive_mem(w, s0, tracer);
    tracer.set_enabled(false);
    auto span_ns = [&](const char* name) { return tracer.total(name).ns; };
    auto span_median_s = [&](const char* name) {
      return median(tracer.durations(name)) / 1e9;
    };
    auto per = [](double ns, std::uint64_t n) {
      return n == 0 ? 0.0 : ns / static_cast<double>(n);
    };
    const auto inject = tracer.total("cosim.CoSimulation::inject");
    std::vector<double> slices_us;
    for (double ns : tracer.durations("cosim.slice")) slices_us.push_back(ns / 1e3);

    m.add("runtime.ns_per_op", per(span_ns("runtime.Executor::step"), ops), "ns");
    m.add("runtime.ops_per_cycle", ratio(d.hw_ops, cyc), "ops/cycle");
    m.add("runtime.dispatches_per_cycle", ratio(d.hw_dispatches, cyc),
          "dispatches/cycle");
    m.add("runtime.queue_high_water", static_cast<double>(s0.end.hw_queue_high_water),
          "count");
    m.add("cosim.phase_a_ns_per_cycle", median(pa), "ns");
    m.add("cosim.phase_b_ns_per_cycle", median(pb), "ns");
    m.add("cosim.boundary_ns_per_cycle", median(pbd), "ns");
    m.add("cosim.lockstep_ns_per_cycle", median(lock), "ns");
    m.add("cosim.slice_us_p50", percentile(slices_us, 0.5), "us");
    m.add("cosim.slice_us_p90", percentile(slices_us, 0.9), "us");
    m.add("cosim.window_cycles", s0.window, "cycles");
    m.add("cosim.elaborate_s", span_median_s("cosim.Project::make_cosim"), "s");
    m.add("cosim.bus_frames_per_cycle", ratio(d.bus_frames, cyc), "frames/cycle");
    m.add("core.project_build_s", span_median_s("core.Project::from_domain"), "s");
    m.add("core.inject_ns", per(inject.ns, inject.count), "ns");
    m.add("hwsim.delta_cycles_per_cycle", ratio(d.delta_cycles, cyc), "1/cycle");
    m.add("hwsim.process_activations_per_cycle", ratio(d.process_activations, cyc),
          "1/cycle");
    m.add("hwsim.wire_commits_per_cycle", ratio(d.wire_commits, cyc), "1/cycle");
    m.add("noc.tick_ns", per(span_ns("noc.Fabric::tick"), fticks), "ns");
    m.add("noc.flits_per_cycle", ratio(d.flits, cyc), "flits/cycle");
    m.add("noc.frames_delivered_per_cycle", ratio(d.frames_delivered, cyc),
          "frames/cycle");
    m.add("noc.latency_mean_cycles", ratio(d.lat_total, d.lat_count), "cycles");
    m.add("noc.latency_max_cycles", static_cast<double>(s0.end.lat_max), "cycles");
    m.add("noc.credit_stalls", static_cast<double>(d.credit_stalls), "count");
    m.add("mem.tick_ns", per(span_ns("mem.System::tick"), mticks), "ns");
    m.add("mem.accesses_per_cycle", ratio(d.loads + d.stores, cyc), "1/cycle");
    m.add("mem.miss_rate", ratio(d.misses, d.hits + d.misses), "ratio");
    m.add("mem.mean_load_use_cycles", ratio(d.load_use_sum, d.load_use_count),
          "cycles");
    m.add("mem.backlog", static_cast<double>(s0.end.mem_backlog()), "count");
    m.add("mem.coh_flit_share", ratio(d.coh_flits, d.flits), "ratio");
    m.add("mem.dram_row_hit_rate", ratio(d.dram_row_hits, d.dram_reads + d.dram_writes),
          "ratio");
    m.add("mem.writebacks", static_cast<double>(d.writebacks), "count");
    m.add("mem.invalidations", static_cast<double>(d.invalidations), "count");
    m.add("fault.injected", static_cast<double>(d.fault_injected), "count");
    m.add("fault.retransmissions", static_cast<double>(d.retransmissions), "count");
    m.add("fault.crc_rejects", static_cast<double>(d.crc_rejects), "count");
    m.add("fault.frames_lost", static_cast<double>(d.frames_lost), "count");
    m.add("fault.survival_rate", ratio(s0.survivors, s0.runs), "ratio");
    m.add("swrt.sw_dispatches_per_cycle", ratio(d.sw_dispatches, cyc),
          "dispatches/cycle");
    m.add("swrt.sw_ops_per_cycle", ratio(d.sw_ops, cyc), "ops/cycle");
    m.add("swrt.sw_queue_high_water", static_cast<double>(s0.end.sw_queue_high_water),
          "count");
    const double off = median(win_off);
    m.add("bench.trace_overhead_pct",
          off == 0 ? 0.0 : (median(win_on) / off - 1.0) * 100.0, "%");
    m.add("bench.error_rate", ratio(failed, attempted), "ratio");
    m.add("bench.host_clock_ghz", clock.ghz(), "GHz");
  }

  if (args.trace && !args.trace_out.empty()) {
    std::ofstream out(args.trace_out);
    out << tracer.to_chrome_json() << "\n";
    if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
  }

  JsonValue doc = JsonValue::object();
  doc["workload"] = w.name;
  doc["seed"] = args.seed;
  doc["trace"] = args.trace;
  doc["threads"] = w.threads;
  doc["samples"] = samples;
  doc["warmup_cycles"] = w.warmup;
  doc["window_cycles"] = w.window;
  doc["attempted"] = attempted;
  doc["failed"] = failed;
  doc["errors"] = std::move(errors);
  doc["fingerprint"] = ok.empty() ? std::string() : ok.front().fingerprint;
  doc["reference_fingerprint"] = reference.front();
  JsonValue st = JsonValue::array();
  for (const Check& c : guard) {
    JsonValue e = JsonValue::object();
    e["what"] = c.what;
    e["first"] = c.first;
    e["second"] = c.second;
    e["ok"] = c.ok;
    st.push_back(std::move(e));
  }
  doc["stationarity"] = std::move(st);
  JsonValue rates = JsonValue::array();
  for (const Sample& s : ok) {
    rates.push_back(static_cast<double>(s.timed_cycles) / s.window_s);
  }
  doc["sample_cycles_per_s"] = std::move(rates);
  JsonValue setups = JsonValue::array();
  for (double x : setup) setups.push_back(x);
  doc["sample_setup_s"] = std::move(setups);
  doc["host"] = host.to_json();
  doc["host"]["clock_ghz"] = clock.ghz();
  if (!ok.empty()) {
    doc["wall_cycles_per_s"] =
        static_cast<double>(ok.front().timed_cycles) / window_seconds(ok);
  }
  doc["metrics"] = std::move(m.doc);
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    if (args.selftest_guard) return selftest_guard();
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
