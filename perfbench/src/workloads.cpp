#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <type_traits>

#include "xtsoc/core/project.hpp"
#include "xtsoc/cosim/report.hpp"
#include "xtsoc/fault/campaign.hpp"
#include "xtsoc/fault/fault.hpp"
#include "xtsoc/mem/mem.hpp"
#include "xtsoc/mem/wire.hpp"
#include "xtsoc/noc/fabric.hpp"
#include "xtsoc/noc/traffic.hpp"
#include "xtsoc/xtuml/builder.hpp"

namespace perfbench {

using namespace xtsoc;
using runtime::InstanceHandle;
using runtime::Value;

namespace {

// Work sizes. Changing any of these changes what every later comparison
// measures, so they are constants, not options.
//
// mesh_compute: 8x8 mesh, 63 hardware tiles, linkLatency=4 (window 4).
// mesh_memory:  4x4 mesh, 14 hardware tiles, DRAM edge on tile 15,
//               linkLatency=1 (lockstep).
// packet_bus:   the paper's packet filter on the point-to-point bus,
//               busLatency=8 (window 8, one hardware domain).
// fault_campaign: 16 runs of a traffic-dense 4x4 mesh, linkLatency=4,
//               1% flit drop + 1% flit corruption, 2 campaign threads.
//
// mesh_memory and packet_bus run serially: at threads=2 lockstep pays a
// pool handshake per delta cycle and packet_bus one per 8-cycle window, and
// their timings followed host thread wake-up latency, not the simulator.
//
// mesh_compute's samples cycle through 6 seed variants. At threads=2 its
// rate depends on the seed (8-10% between seeds, with the host's speed
// taken out; none at threads=1), so a run that timed one seed only would
// carry that seed's luck into the comparison between runs.
const std::vector<Workload> kWorkloads = {
    {"mesh_compute", 2, 400, 4000, 100, 6},
    {"mesh_memory", 1, 4096, 32768, 256, 1},
    {"packet_bus", 1, 1024, 131072, 4096, 1},
    {"fault_campaign", 2, 400, 8000, 0, 1},
};

constexpr int kTokensPerNode = 2;   // fixed per-node signal population
constexpr int kPacketsPerSlice = 24;
constexpr std::uint64_t kPacketSlice = 64;  // cycles per stimulus slice
constexpr int kCampaignRuns = 16;
constexpr double kCampaignDrop = 0.01;
constexpr double kCampaignCorrupt = 0.01;

// mesh_memory address map (bytes, 64-byte lines, 16 sets). Each tile's
// private region sits 64 KiB apart: 8 hot lines in sets 0-7, then a 48-line
// cold walk. The read-shared lines live in sets 8-11 and the write-shared
// line in set 12, so shared lines do not evict a tile's hot lines.
constexpr std::int64_t kPrivateStride = 65536;
constexpr std::int64_t kColdOffset = 4096;
constexpr std::int64_t kSharedRo = 4194816;  // 4 MiB + 8 lines
constexpr std::int64_t kSharedRw = 4199168;  // 4 MiB + 4 KiB + 12 lines

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The i-th draw of stream `stream` under `seed`.
std::uint64_t draw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i) {
  return splitmix(splitmix(seed) ^ splitmix((stream << 40) ^ i));
}

// --- models --------------------------------------------------------------------
//
// Every mesh model is token-conserving: each dispatch either re-arms the
// instance (tick to self) or forwards its token to the ring peer (ping),
// never both, and a ping becomes one local tick. The signal population is
// therefore fixed at kTokensPerNode per node, queues stay bounded, and the
// per-cycle cost of HwDomain's queue rescan is measured but does not grow.
//
// The accumulator steps x -> 75x + 74 mod 65537. 75 is a primitive root of
// 65537, so every start value below 65536 (the fixed point) walks orbits
// long enough that each node keeps forwarding; with the committed
// multiplier 33 (order 2048) some nodes fall into 32-step orbits that never
// satisfy the forwarding test and the fabric goes quiet.

const char* kComputeSpin =
    "acc = self.acc;\n"
    "r = 0;\n"
    "while (r < 64)\n"
    "  acc = (acc * 75 + 74) % 65537;\n"
    "  r = r + 1;\n"
    "end while;\n"
    "self.acc = acc;\n"
    "if (acc % 16 == 0)\n"
    "  generate ping(v: acc) to self.peer;\n"
    "else\n"
    "  generate tick() to self;\n"
    "end if;";

// The committed bench_cosim/bench_fault mesh action: it forwards a ping AND
// re-arms itself, so signals accumulate. Used only to show that the
// stationarity guard rejects it.
const char* kLeakySpin =
    "acc = self.acc;\n"
    "r = 0;\n"
    "while (r < 64)\n"
    "  acc = (acc * 33 + 7) % 65537;\n"
    "  r = r + 1;\n"
    "end while;\n"
    "self.acc = acc;\n"
    "if (acc % 16 == 0)\n"
    "  generate ping(v: acc) to self.peer;\n"
    "end if;\n"
    "generate tick() to self;";

const char* kComputePinged =
    "self.pings = self.pings + param.v % 2;\n"
    "generate tick() to self;";

// Light compute plus a memory mix, phased by the per-node dispatch count n:
// hot private reads (8 lines) and writes, a read-shared region (4 lines),
// a cold private walk over 48 lines (private set 56 lines > the 32-line
// cache), and one write to the line every tile shares. Misses come from the
// cold walk and the shared write only, ~2 per tile per 1024 dispatches,
// which keeps the directory tile's fills well under its service rate.
const char* kMemorySpin =
    "n = self.n + 1;\n"
    "self.n = n;\n"
    "acc = self.acc;\n"
    "r = 0;\n"
    "while (r < 4)\n"
    "  acc = (acc * 75 + 74) % 65537;\n"
    "  r = r + 1;\n"
    "end while;\n"
    "self.acc = acc;\n"
    "if (n % 8 == 0)\n"
    "  self.sum = (self.sum + mem.read(self.base + (n / 8 % 8) * 64)) % 65537;\n"
    "end if;\n"
    "if (n % 16 == 4)\n"
    "  mem.write(self.base + (n / 16 % 8) * 64, acc);\n"
    "end if;\n"
    "if (n % 64 == 32)\n"
    "  self.sum = (self.sum + mem.read(4194816 + (n / 64 % 4) * 64)) % 65537;\n"
    "end if;\n"
    "if (n % 1024 == 512)\n"
    "  self.sum = (self.sum + mem.read(self.base + 4096 + (n / 1024 % 48) * 64))"
    " % 65537;\n"
    "end if;\n"
    "if (n % 1024 == 768)\n"
    "  mem.write(4199168, acc);\n"
    "end if;\n"
    "if (acc % 16 == 0)\n"
    "  generate ping(v: acc) to self.peer;\n"
    "else\n"
    "  generate tick() to self;\n"
    "end if;";

const char* kMemoryPinged =
    "self.pings = self.pings + 1;\n"
    "generate tick() to self;";

// Traffic-dense: about every other dispatch forwards its token.
const char* kCampaignSpin =
    "acc = self.acc;\n"
    "r = 0;\n"
    "while (r < 8)\n"
    "  acc = (acc * 75 + 74) % 65537;\n"
    "  r = r + 1;\n"
    "end while;\n"
    "self.acc = acc;\n"
    "if (acc % 2 == 0)\n"
    "  generate ping(v: acc) to self.peer;\n"
    "else\n"
    "  generate tick() to self;\n"
    "end if;";

struct MeshShape {
  int width;
  int height;
  int link_latency;
  int dram_tile;  ///< -1: no memory hierarchy
  int nodes;      ///< hardware nodes on tiles 1..nodes (tile 0 is the CPU)
};

MeshShape shape_of(const Workload& w) {
  const std::string name = w.name;
  if (name == "mesh_compute") return {8, 8, 4, -1, 63};
  if (name == "mesh_memory") return {4, 4, 1, 15, 14};
  return {4, 4, 4, -1, 15};  // fault_campaign
}

std::unique_ptr<xtuml::Domain> make_mesh_domain(int nodes, const char* spin,
                                                const char* pinged) {
  using xtuml::DataType;
  xtuml::DomainBuilder b("MeshSoc");
  for (int i = 0; i < nodes; ++i) b.cls("Node" + std::to_string(i));
  for (int i = 0; i < nodes; ++i) {
    b.edit("Node" + std::to_string(i))
        .attr("acc", DataType::kInt)
        .attr("n", DataType::kInt)
        .attr("pings", DataType::kInt)
        .attr("sum", DataType::kInt)
        .attr("base", DataType::kInt)
        .ref_attr("peer", "Node" + std::to_string((i + 1) % nodes))
        .event("tick")
        .event("ping", {{"v", DataType::kInt}})
        .state("Spin", spin)
        .state("Pinged", pinged)
        .transition("Spin", "tick", "Spin")
        .transition("Spin", "ping", "Pinged")
        .transition("Pinged", "tick", "Spin")
        .transition("Pinged", "ping", "Pinged");
  }
  return b.take();
}

std::unique_ptr<xtuml::Domain> make_domain(const Workload& w, Model model) {
  const std::string name = w.name;
  if (name == "packet_bus") {
    using xtuml::DataType;
    // The paper's packet filter: Classifier (sw) -> Crypto (hw) -> Sink (sw).
    xtuml::DomainBuilder b("PacketSoc");
    b.cls("Classifier", "CLS");
    b.cls("Crypto", "CRY");
    b.cls("Sink", "SNK");
    b.edit("Classifier")
        .attr("seen", DataType::kInt)
        .ref_attr("crypto", "Crypto")
        .ref_attr("sink", "Sink")
        .event("packet", {{"len", DataType::kInt}, {"seq", DataType::kInt}})
        .state("Classify",
               "self.seen = self.seen + 1;\n"
               "if (param.len % 2 == 0)\n"
               "  generate encrypt(seq: param.seq, len: param.len) to "
               "self.crypto;\n"
               "else\n"
               "  generate deliver(seq: param.seq, check: param.len) to "
               "self.sink;\n"
               "end if;")
        .transition("Classify", "packet", "Classify");
    b.edit("Crypto")
        .attr("done_count", DataType::kInt)
        .ref_attr("sink", "Sink")
        .event("encrypt", {{"seq", DataType::kInt}, {"len", DataType::kInt}})
        .state("Scramble",
               "key = 5;\n"
               "acc = param.seq;\n"
               "round = 0;\n"
               "while (round < param.len)\n"
               "  acc = (acc * 31 + key) % 65537;\n"
               "  round = round + 1;\n"
               "end while;\n"
               "self.done_count = self.done_count + 1;\n"
               "generate deliver(seq: param.seq, check: acc) to self.sink;")
        .transition("Scramble", "encrypt", "Scramble");
    b.edit("Sink")
        .attr("received", DataType::kInt)
        .attr("checksum", DataType::kInt)
        .event("deliver", {{"seq", DataType::kInt}, {"check", DataType::kInt}})
        .state("Collect",
               "self.received = self.received + 1;\n"
               "self.checksum = (self.checksum + param.check) % 1000000007;")
        .transition("Collect", "deliver", "Collect");
    return b.take();
  }
  const MeshShape sh = shape_of(w);
  if (model == Model::kLeaky) {
    return make_mesh_domain(sh.nodes, kLeakySpin, kComputePinged);
  }
  if (name == "mesh_compute") {
    return make_mesh_domain(sh.nodes, kComputeSpin, kComputePinged);
  }
  if (name == "mesh_memory") {
    return make_mesh_domain(sh.nodes, kMemorySpin, kMemoryPinged);
  }
  return make_mesh_domain(sh.nodes, kCampaignSpin, kComputePinged);
}

marks::MarkSet make_marks(const Workload& w) {
  using xtuml::ScalarValue;
  marks::MarkSet m;
  if (std::string(w.name) == "packet_bus") {
    m.mark_hardware("Crypto");
    m.set_domain_mark(marks::kBusLatency, ScalarValue(std::int64_t{8}));
    return m;
  }
  const MeshShape sh = shape_of(w);
  for (int i = 0; i < sh.nodes; ++i) {
    const std::string cls = "Node" + std::to_string(i);
    const int tile = i + 1;
    m.mark_hardware(cls);
    m.set_class_mark(cls, marks::kTileX, ScalarValue(std::int64_t{tile % sh.width}));
    m.set_class_mark(cls, marks::kTileY, ScalarValue(std::int64_t{tile / sh.width}));
  }
  m.set_domain_mark(marks::kMeshWidth, ScalarValue(std::int64_t{sh.width}));
  m.set_domain_mark(marks::kMeshHeight, ScalarValue(std::int64_t{sh.height}));
  m.set_domain_mark(marks::kLinkLatency, ScalarValue(std::int64_t{sh.link_latency}));
  if (sh.dram_tile >= 0) {
    m.set_domain_mark(marks::kDramTile, ScalarValue(std::int64_t{sh.dram_tile}));
    m.set_domain_mark(marks::kCacheSets, ScalarValue(std::int64_t{16}));
    m.set_domain_mark(marks::kCacheWays, ScalarValue(std::int64_t{2}));
    m.set_domain_mark(marks::kCacheLineBytes, ScalarValue(std::int64_t{64}));
  }
  return m;
}

std::unique_ptr<core::Project> build_project(const Workload& w, Model model,
                                             Tracer& tr) {
  auto domain = make_domain(w, model);
  DiagnosticSink sink;
  std::unique_ptr<core::Project> p;
  {
    Scope sp(tr, "core.Project::from_domain");
    p = core::Project::from_domain(std::move(domain), make_marks(w), sink);
  }
  if (!p) throw std::runtime_error("project: " + sink.to_string());
  return p;
}

/// Initial node state: acc and the memory phase n come from the seed.
std::vector<std::pair<std::string, Value>> node_attrs(std::uint64_t seed,
                                                      int node) {
  const auto u = static_cast<std::uint64_t>(node);
  return {{"acc", Value(static_cast<std::int64_t>(draw(seed, 1, u) % 65536))},
          {"n", Value(static_cast<std::int64_t>(draw(seed, 2, u) % 1024))},
          {"base", Value(static_cast<std::int64_t>(node + 1) * kPrivateStride)}};
}

/// Create the ring of nodes, link peers, and inject the token population.
/// Works for a CoSimulation and for the abstract Executor alike.
template <typename Sim>
void populate_mesh(Sim& sim, int nodes, std::uint64_t seed, Tracer& tr,
                   const char* create_span, const char* inject_span) {
  std::vector<InstanceHandle> h;
  h.reserve(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    Scope sp(tr, create_span);
    h.push_back(sim.create_with("Node" + std::to_string(i), node_attrs(seed, i)));
  }
  for (int i = 0; i < nodes; ++i) {
    const InstanceHandle& self = h[static_cast<std::size_t>(i)];
    const InstanceHandle& peer = h[static_cast<std::size_t>((i + 1) % nodes)];
    runtime::Database* db;
    if constexpr (std::is_same_v<Sim, cosim::CoSimulation>) {
      db = &sim.executor_of(self.cls).database();
    } else {
      db = &sim.database();
    }
    const auto* def = db->domain().cls(self.cls).find_attribute("peer");
    db->set_attr(self, def->id, Value(peer));
  }
  for (int k = 0; k < kTokensPerNode; ++k) {
    for (int i = 0; i < nodes; ++i) {
      Scope sp(tr, inject_span);
      sim.inject(h[static_cast<std::size_t>(i)], "tick");
    }
  }
}

// --- packet stimulus -------------------------------------------------------------

struct Packet {
  std::int64_t len;
  std::int64_t seq;
};

/// Packets of 128-255 bytes. With lengths this long the Crypto action, not
/// the per-cycle co-simulation overhead, carries most of the host time,
/// which measured several times steadier on a shared host (run-to-run
/// spread 0.04-0.07 against 0.21 for the 16-63 byte packets of
/// examples/packet_filter.cpp).
Packet packet_of(std::uint64_t seed, std::uint64_t i) {
  return {128 + static_cast<std::int64_t>(draw(seed, 3, i) % 128),
          static_cast<std::int64_t>(i)};
}

/// What Sink.checksum must accumulate for packet `p` (the Scramble action
/// for even lengths, the length itself for odd ones).
std::int64_t expected_check(const Packet& p) {
  if (p.len % 2 != 0) return p.len;
  std::int64_t acc = p.seq;
  for (std::int64_t r = 0; r < p.len; ++r) acc = (acc * 31 + 5) % 65537;
  return acc;
}

struct PacketDriver {
  std::uint64_t seed;
  InstanceHandle classifier;
  std::uint64_t next = 0;  ///< packets injected so far

  /// Open loop: kPacketsPerSlice packets spread evenly over the next
  /// kPacketSlice cycles, whatever the system is doing.
  void slice(cosim::CoSimulation& cs, Tracer& tr) {
    for (int k = 0; k < kPacketsPerSlice; ++k) {
      const Packet p = packet_of(seed, next++);
      const auto delay =
          static_cast<std::uint64_t>(k) * kPacketSlice / kPacketsPerSlice;
      Scope sp(tr, "cosim.CoSimulation::inject");
      cs.inject(classifier, "packet", {Value(p.len), Value(p.seq)}, delay);
    }
  }
};

// --- fingerprints ----------------------------------------------------------------

std::uint64_t fnv1a(std::string_view s, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// report() without the fields that legitimately differ between equivalent
/// runs (the thread count), plus every instance's state and attributes.
std::string observables(const cosim::CoSimulation& cs) {
  obs::Snapshot rep = cs.report();
  rep["run"]["threads"] = 0;
  std::string text = rep.to_json();
  const xtuml::Domain& dom = cs.system().domain();
  for (const xtuml::ClassDef& cls : dom.classes()) {
    const runtime::Database& db = cs.executor_of(cls.id).database();
    for (const InstanceHandle& h : db.all_of(cls.id)) {
      text += '|';
      text += cls.name;
      text += '#';
      text += std::to_string(h.index);
      text += '@';
      text += std::to_string(db.current_state(h).value());
      for (const xtuml::AttributeDef& a : cls.attributes) {
        text += ',';
        text += runtime::to_string(db.get_attr(h, a.id));
      }
    }
  }
  return text;
}

std::int64_t int_attr(const cosim::CoSimulation& cs, const InstanceHandle& h,
                      const char* name) {
  const runtime::Database& db = cs.executor_of(h.cls).database();
  const auto* a = db.domain().cls(h.cls).find_attribute(name);
  return runtime::as_int(db.get_attr(h, a->id));
}

Counts counts_of(const obs::Snapshot& rep) {
  Counts c;
  c.cycles = rep.at("run").at("cycles").as_uint();
  const obs::JsonValue& sim = rep.at("sim");
  c.delta_cycles = sim.at("delta_cycles").as_uint();
  c.process_activations = sim.at("process_activations").as_uint();
  c.wire_commits = sim.at("wire_commits").as_uint();
  for (const obs::JsonValue& d : rep.at("domains").as_array()) {
    const bool sw = d.at("name").as_string() == "sw";
    const std::uint64_t hw = d.at("queue_high_water").as_uint();
    if (sw) {
      c.sw_dispatches += d.at("dispatches").as_uint();
      c.sw_ops += d.at("ops").as_uint();
      c.sw_queue_high_water = hw;
    } else {
      c.hw_dispatches += d.at("dispatches").as_uint();
      c.hw_ops += d.at("ops").as_uint();
      if (hw > c.hw_queue_high_water) c.hw_queue_high_water = hw;
    }
  }
  const obs::JsonValue& ic = rep.at("interconnect");
  if (ic.at("kind").as_string() == "noc") {
    c.frames_sent = ic.at("frames_sent").as_uint();
    c.frames_delivered = ic.at("frames_delivered").as_uint();
    c.flits = ic.at("flits_injected").as_uint();
    c.payload_bytes = ic.at("payload_bytes").as_uint();
    for (const obs::JsonValue& r : ic.at("routers").as_array()) {
      c.credit_stalls += r.at("credit_stalls").as_uint();
    }
    const obs::JsonValue& lat = ic.at("latency");
    c.lat_count = lat.at("count").as_uint();
    c.lat_total = static_cast<std::uint64_t>(
        std::llround(lat.at("mean").as_double() * static_cast<double>(c.lat_count)));
    c.lat_max = lat.at("max").as_uint();
  } else {
    c.bus_frames = ic.at("frames_to_hw").as_uint() + ic.at("frames_to_sw").as_uint();
  }
  if (const obs::JsonValue* m = rep.find("memory")) {
    c.loads = m->at("loads").as_uint();
    c.stores = m->at("stores").as_uint();
    c.hits = m->at("hits").as_uint();
    c.misses = m->at("misses").as_uint();
    c.writebacks = m->at("writebacks").as_uint();
    c.invalidations = m->at("invalidations").as_uint();
    c.dram_reads = m->at("dram_reads").as_uint();
    c.dram_writes = m->at("dram_writes").as_uint();
    c.dram_row_hits = m->at("dram_row_hits").as_uint();
    c.coh_flits = m->at("coh_flits").as_uint();
  }
  if (const obs::JsonValue* f = rep.find("faults")) {
    if (const obs::JsonValue* n = f->find("noc")) {
      c.fault_injected = n->at("flits_dropped").as_uint() +
                         n->at("flits_corrupted").as_uint() +
                         n->at("link_down_events").as_uint();
      c.retransmissions = n->at("retransmissions").as_uint();
      c.crc_rejects = n->at("crc_rejects").as_uint();
      c.frames_lost = n->at("frames_lost").as_uint();
    }
  }
  return c;
}

Counts counts_at(const cosim::CoSimulation& cs, Tracer& tr) {
  obs::Snapshot rep;
  {
    Scope sp(tr, "cosim.CoSimulation::report");
    rep = cs.report();
  }
  Counts c = counts_of(rep);
  if (const mem::System* m = cs.mem_system()) {
    c.load_use_sum = m->stats().load_use_sum;
    c.load_use_count = m->stats().load_use_count;
  }
  return c;
}

/// The campaign's base fault scenario; run i uses Campaign::spec_for(i).
fault::FaultSpec campaign_spec(std::uint64_t seed) {
  fault::FaultSpec spec;
  spec.seed = seed;
  spec.flit_drop = kCampaignDrop;
  spec.flit_corrupt = kCampaignCorrupt;
  return spec;
}

cosim::CoSimConfig base_config(int threads) {
  cosim::CoSimConfig cfg;
  cfg.trace_enabled = false;
  cfg.threads = threads;
  return cfg;
}

// --- one sample of a co-simulation workload ----------------------------------------

Sample run_cosim_sample(const Workload& w, std::uint64_t seed, int threads,
                        Model model, bool setup_only, Tracer& tr) {
  Sample s;
  const bool packets = std::string(w.name) == "packet_bus";
  const std::int64_t t0 = now_ns();
  auto project = build_project(w, model, tr);
  const std::int64_t t1 = now_ns();
  std::unique_ptr<cosim::CoSimulation> cs;
  {
    Scope sp(tr, "cosim.Project::make_cosim");
    cs = project->make_cosim(base_config(threads));
  }
  const std::int64_t t2 = now_ns();
  PacketDriver driver{seed, {}, 0};
  InstanceHandle sink, crypto;
  if (packets) {
    {
      Scope sp(tr, "cosim.CoSimulation::create");
      sink = cs->create("Sink");
    }
    {
      Scope sp(tr, "cosim.CoSimulation::create");
      crypto = cs->create_with("Crypto", {{"sink", Value(sink)}});
    }
    {
      Scope sp(tr, "cosim.CoSimulation::create");
      driver.classifier = cs->create_with(
          "Classifier", {{"crypto", Value(crypto)}, {"sink", Value(sink)}});
    }
  } else {
    populate_mesh(*cs, shape_of(w).nodes, seed, tr, "cosim.CoSimulation::create",
                  "cosim.CoSimulation::inject");
  }
  const std::int64_t t3 = now_ns();
  s.build_s = static_cast<double>(t1 - t0) / 1e9;
  s.elaborate_s = static_cast<double>(t2 - t1) / 1e9;
  s.populate_s = static_cast<double>(t3 - t2) / 1e9;
  s.window = cs->window();
  s.has_fabric = cs->has_fabric();
  s.has_mem = cs->mem_system() != nullptr;
  if (setup_only) return s;

  {
    Scope sp(tr, "cosim.warmup");
    if (packets) {
      for (std::uint64_t c = 0; c < w.warmup; c += kPacketSlice) {
        driver.slice(*cs, tr);
        cs->run_cycles(kPacketSlice);
      }
    } else {
      cs->run_cycles(w.warmup);
    }
  }

  s.start = counts_at(*cs, tr);
  const auto p0 = cs->phase_seconds();
  const std::uint64_t slices = w.window / w.slice;
  for (std::uint64_t k = 0; k < slices; ++k) {
    const std::int64_t a = now_ns();
    {
      Scope sp(tr, "cosim.slice");
      if (packets) {
        for (std::uint64_t c = 0; c < w.slice; c += kPacketSlice) {
          driver.slice(*cs, tr);
          Scope rc(tr, "cosim.CoSimulation::run_cycles");
          cs->run_cycles(kPacketSlice);
        }
      } else {
        Scope rc(tr, "cosim.CoSimulation::run_cycles");
        cs->run_cycles(w.slice);
      }
    }
    const double secs = static_cast<double>(now_ns() - a) / 1e9;
    s.slice_s.push_back(secs);
    s.window_s += secs;
    if (k + 1 == slices / 2) s.mid = counts_at(*cs, tr);
  }
  s.timed_cycles = slices * w.slice;
  s.end = counts_at(*cs, tr);
  const auto p1 = cs->phase_seconds();
  s.phases.boundary = p1.boundary - p0.boundary;
  s.phases.phase_a = p1.phase_a - p0.phase_a;
  s.phases.phase_b = p1.phase_b - p0.phase_b;

  if (packets) {
    // Drain (untimed) and check the filter's outputs against the stimulus.
    cs->run(1'000'000);
    std::int64_t checksum = 0, evens = 0;
    for (std::uint64_t i = 0; i < driver.next; ++i) {
      const Packet p = packet_of(seed, i);
      checksum = (checksum + expected_check(p)) % 1000000007;
      if (p.len % 2 == 0) ++evens;
    }
    const auto sent = static_cast<std::int64_t>(driver.next);
    if (!cs->quiescent() || int_attr(*cs, sink, "received") != sent ||
        int_attr(*cs, sink, "checksum") != checksum ||
        int_attr(*cs, crypto, "done_count") != evens ||
        int_attr(*cs, driver.classifier, "seen") != sent) {
      s.error = "packet_bus: Sink/Crypto/Classifier counts or checksum differ "
                "from the injected stimulus";
    }
  }
  s.fingerprint = hex(fnv1a(observables(*cs)));
  return s;
}

// --- one sample of the fault campaign ------------------------------------------------

struct CampaignRun {
  Counts start, mid, end;
  cosim::CoSimulation::PhaseSeconds phases;  ///< whole run
  std::string fingerprint;
};

Sample run_campaign_sample(const Workload& w, std::uint64_t seed, int threads,
                           bool setup_only, Tracer& tr) {
  Sample s;
  const int nodes = shape_of(w).nodes;
  const fault::Campaign campaign(campaign_spec(seed), kCampaignRuns, threads);

  // Set-up as a user pays it before the campaign: the project, plus one
  // elaborated, populated co-simulation under a plan. Co-simulations are
  // serial (threads=1); the campaign's threads are the parallelism, across
  // runs.
  const std::int64_t t0 = now_ns();
  auto project = build_project(w, Model::kSteady, tr);
  const std::int64_t t1 = now_ns();
  auto elaborate = [&](fault::Plan& plan) {
    cosim::CoSimConfig cfg = base_config(1);
    cfg.fault = &plan;
    Scope sp(tr, "cosim.Project::make_cosim");
    return project->make_cosim(cfg);
  };
  {
    fault::Plan plan(campaign.spec_for(0));
    const std::int64_t e0 = now_ns();
    auto cs = elaborate(plan);
    const std::int64_t e1 = now_ns();
    populate_mesh(*cs, nodes, seed, tr, "cosim.CoSimulation::create",
                  "cosim.CoSimulation::inject");
    const std::int64_t e2 = now_ns();
    s.elaborate_s = static_cast<double>(e1 - e0) / 1e9;
    s.populate_s = static_cast<double>(e2 - e1) / 1e9;
    s.window = cs->window();
  }
  s.build_s = static_cast<double>(t1 - t0) / 1e9;
  s.has_fabric = true;
  if (setup_only) return s;

  // Each run: fresh elaboration under its own plan, a fixed warm-up, then
  // two equal halves with counts taken at the boundaries.
  std::vector<CampaignRun> runs(kCampaignRuns);
  const std::uint64_t half = w.window / 2;
  auto one = [&](int index, std::uint64_t) {
    fault::Plan plan(campaign.spec_for(index));
    auto cs = elaborate(plan);
    populate_mesh(*cs, nodes, seed, tr, "cosim.CoSimulation::create",
                  "cosim.CoSimulation::inject");
    CampaignRun& r = runs[static_cast<std::size_t>(index)];
    {
      Scope sp(tr, "cosim.CoSimulation::run_cycles");
      cs->run_cycles(w.warmup);
    }
    r.start = counts_at(*cs, tr);
    {
      Scope sp(tr, "cosim.slice");
      cs->run_cycles(half);
    }
    r.mid = counts_at(*cs, tr);
    {
      Scope sp(tr, "cosim.slice");
      cs->run_cycles(half);
    }
    r.end = counts_at(*cs, tr);
    r.phases = cs->phase_seconds();
    r.fingerprint = hex(fnv1a(observables(*cs)));
    return cosim::outcome_of(*cs, plan);
  };
  fault::CampaignResult result;
  const std::int64_t a = now_ns();
  {
    Scope sp(tr, "fault.Campaign::run");
    result = campaign.run(one);
  }
  s.window_s = static_cast<double>(now_ns() - a) / 1e9;
  s.slice_s = {s.window_s};
  s.timed_cycles = static_cast<std::uint64_t>(kCampaignRuns) * (w.warmup + 2 * half);

  std::string text = result.to_snapshot().to_json();
  for (const CampaignRun& r : runs) {
    s.start.add(r.start);
    s.mid.add(r.mid);
    s.end.add(r.end);
    s.phases.boundary += r.phases.boundary;
    s.phases.phase_a += r.phases.phase_a;
    s.phases.phase_b += r.phases.phase_b;
    text += "|" + r.fingerprint;
  }
  s.runs = result.runs.size();
  s.survivors = result.survivors();
  s.fingerprint = hex(fnv1a(text));
  return s;
}

}  // namespace

// --- public -------------------------------------------------------------------------

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

// Every Counts field is either cumulative (summed over time and runs) or a
// level (a maximum). Listing them once keeps minus() and add() in step.
using Field = std::uint64_t Counts::*;
constexpr Field kCumulative[] = {
    &Counts::cycles,          &Counts::hw_dispatches,  &Counts::hw_ops,
    &Counts::sw_dispatches,   &Counts::sw_ops,         &Counts::delta_cycles,
    &Counts::process_activations, &Counts::wire_commits, &Counts::frames_sent,
    &Counts::frames_delivered, &Counts::flits,         &Counts::payload_bytes,
    &Counts::lat_count,       &Counts::lat_total,      &Counts::credit_stalls,
    &Counts::bus_frames,      &Counts::loads,          &Counts::stores,
    &Counts::hits,            &Counts::misses,         &Counts::writebacks,
    &Counts::invalidations,   &Counts::dram_reads,     &Counts::dram_writes,
    &Counts::dram_row_hits,   &Counts::coh_flits,      &Counts::load_use_sum,
    &Counts::load_use_count,  &Counts::fault_injected, &Counts::retransmissions,
    &Counts::crc_rejects,     &Counts::frames_lost,
};
constexpr Field kLevels[] = {&Counts::hw_queue_high_water,
                             &Counts::sw_queue_high_water, &Counts::lat_max};

}  // namespace

std::uint64_t variant_seed(std::uint64_t seed, int v) {
  return v == 0 ? seed : draw(seed, 3, static_cast<std::uint64_t>(v));
}

Counts Counts::minus(const Counts& e) const {
  Counts d = *this;  // level fields keep this side's value
  for (Field f : kCumulative) d.*f -= e.*f;
  return d;
}

void Counts::add(const Counts& o) {
  for (Field f : kCumulative) this->*f += o.*f;
  for (Field f : kLevels) this->*f = std::max(this->*f, o.*f);
}

Sample run_sample(const Workload& w, std::uint64_t seed, int threads,
                  Model model, Tracer& tracer) {
  if (std::string(w.name) == "fault_campaign") {
    return run_campaign_sample(w, seed, threads, false, tracer);
  }
  return run_cosim_sample(w, seed, threads, model, false, tracer);
}

double setup_seconds(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  const Sample s = std::string(w.name) == "fault_campaign"
                       ? run_campaign_sample(w, seed, w.threads, true, tracer)
                       : run_cosim_sample(w, seed, w.threads, Model::kSteady,
                                          true, tracer);
  return s.setup_s();
}

// --- standalone drives ------------------------------------------------------------------

std::uint64_t drive_executor(const Workload& w, std::uint64_t seed, Tracer& tr) {
  Tracer off;  // set-up is not the measured layer
  auto project = build_project(w, Model::kSteady, off);
  runtime::ExecutorConfig cfg;
  cfg.trace_enabled = false;
  auto ex = project->make_abstract_executor(cfg);
  if (std::string(w.name) == "packet_bus") {
    // The hottest action is Crypto.Scramble: feed it packets directly.
    auto sink = ex->create("Sink");
    auto crypto = ex->create_with("Crypto", {{"sink", Value(sink)}});
    constexpr std::uint64_t kPackets = 20000;
    for (std::uint64_t i = 0; i < kPackets; ++i) {
      const Packet p = packet_of(seed, 2 * i);  // even lengths take this path
      const std::int64_t len = p.len + (p.len % 2);
      ex->inject(crypto, "encrypt", {Value(p.seq), Value(len)});
    }
    const std::uint64_t ops0 = ex->ops_executed();
    {
      Scope sp(tr, "runtime.Executor::step");
      ex->run_all();
    }
    return ex->ops_executed() - ops0;
  }
  populate_mesh(*ex, shape_of(w).nodes, seed, off, "", "");
  for (int i = 0; i < 2000; ++i) ex->step();  // warm caches and pools
  const std::uint64_t ops0 = ex->ops_executed();
  {
    Scope sp(tr, "runtime.Executor::step");
    for (int i = 0; i < 40000; ++i) ex->step();
  }
  return ex->ops_executed() - ops0;
}

std::uint64_t drive_fabric(const Workload& w, std::uint64_t seed,
                           const Sample& s, Tracer& tr) {
  if (!s.has_fabric) return 0;
  const MeshShape sh = shape_of(w);
  const Counts d = s.end.minus(s.start);
  const double cycles = static_cast<double>(d.cycles);
  const int tiles = sh.width * sh.height;
  std::unique_ptr<fault::Plan> plan;
  noc::FabricConfig cfg;
  cfg.width = sh.width;
  cfg.height = sh.height;
  cfg.link_latency = sh.link_latency;
  if (std::string(w.name) == "fault_campaign") {
    plan = std::make_unique<fault::Plan>(campaign_spec(seed));
    cfg.fault = plan.get();
  }
  noc::Fabric fabric(cfg);
  noc::TrafficSpec ts;
  ts.pattern = noc::TrafficPattern::kUniform;
  ts.seed = seed;
  ts.offered_load = cycles == 0 ? 0.0 : static_cast<double>(d.frames_sent) / cycles / tiles;
  ts.payload_bytes = d.frames_sent == 0
                         ? 4
                         : static_cast<int>(std::max<std::uint64_t>(
                               1, d.payload_bytes / d.frames_sent));
  noc::TrafficGen gen(ts, fabric.topology());
  constexpr std::uint64_t kTicks = 20000;
  for (std::uint64_t c = 0; c < kTicks; ++c) {
    gen.tick(fabric, c);
    {
      Scope sp(tr, "noc.Fabric::tick");
      fabric.tick(c + 1);
    }
    for (int t = 0; t < tiles; ++t) (void)fabric.pop_due(t, c + 1);
  }
  return kTicks;
}

std::uint64_t drive_mem(const Workload& w, const Sample& s, Tracer& tr) {
  if (!s.has_mem) return 0;
  const MeshShape sh = shape_of(w);
  noc::FabricConfig fcfg;
  fcfg.width = sh.width;
  fcfg.height = sh.height;
  fcfg.link_latency = sh.link_latency;
  noc::Fabric fabric(fcfg);
  mem::MemConfig mcfg;
  mcfg.dram_tile = sh.dram_tile;
  mcfg.sets = 16;
  mcfg.ways = 2;
  mcfg.line_bytes = 64;
  mcfg.lookahead = static_cast<std::uint64_t>(sh.link_latency);
  mem::System sys(mcfg, &fabric);
  for (int i = 0; i < sh.nodes; ++i) sys.add_domain(i + 1, nullptr);

  // The model's per-node address stream (kMemorySpin), advanced at the
  // workload's measured dispatch rate per node.
  const Counts d = s.end.minus(s.start);
  const double rate = d.cycles == 0 ? 0.0
                                    : static_cast<double>(d.hw_dispatches) /
                                          static_cast<double>(d.cycles) / sh.nodes;
  std::vector<double> credit(static_cast<std::size_t>(sh.nodes), 0.0);
  std::vector<std::int64_t> n(static_cast<std::size_t>(sh.nodes), 0);
  std::uint64_t cycle = 0;
  constexpr std::uint64_t kTicks = 20000;
  while (cycle < kTicks) {
    for (int t = 0; t < sh.nodes; ++t) {
      const auto ti = static_cast<std::size_t>(t);
      credit[ti] += rate;
      while (credit[ti] >= 1.0) {
        credit[ti] -= 1.0;
        const std::int64_t k = ++n[ti];
        const std::int64_t base = static_cast<std::int64_t>(t + 1) * kPrivateStride;
        if (k % 8 == 0) (void)sys.read(t, cycle, base + (k / 8 % 8) * 64);
        if (k % 16 == 4) sys.write(t, cycle, base + (k / 16 % 8) * 64, k);
        if (k % 64 == 32) (void)sys.read(t, cycle, kSharedRo + (k / 64 % 4) * 64);
        if (k % 1024 == 512) {
          (void)sys.read(t, cycle, base + kColdOffset + (k / 1024 % 48) * 64);
        }
        if (k % 1024 == 768) sys.write(t, cycle, kSharedRw, k);
      }
    }
    sys.append_visible(cycle);
    ++cycle;
    fabric.tick(cycle);
    std::vector<mem::System::Incoming> delivered;
    for (int tile = 0; tile < sh.width * sh.height; ++tile) {
      for (noc::Delivery& dl : fabric.pop_due(tile, cycle)) {
        if (!mem::wire::is_coherence(dl.opcode)) continue;
        delivered.push_back(mem::System::Incoming{tile, dl.opcode, std::move(dl.payload)});
      }
    }
    Scope sp(tr, "mem.System::tick");
    sys.tick(cycle, delivered);
  }
  return kTicks;
}

}  // namespace perfbench
