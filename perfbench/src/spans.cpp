#include "spans.hpp"

#include <functional>
#include <thread>

#include "xtsoc/obs/json.hpp"

namespace perfbench {

namespace {
thread_local std::vector<int> tls_open;  // open span ids on this thread
}

int Tracer::begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = tls_open.empty() ? -1 : tls_open.back();
  s.sample = sample_;
  s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  std::lock_guard<std::mutex> lock(mu_);
  s.id = static_cast<int>(spans_.size());
  s.start_ns = now_ns();
  spans_.push_back(s);
  tls_open.push_back(s.id);
  return s.id;
}

void Tracer::end(int id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
  tls_open.pop_back();
}

Tracer::Total Tracer::total(const std::string& name) const {
  Total t;
  for (const Span& s : spans_) {
    if (name != s.name) continue;
    t.ns += static_cast<double>(s.end_ns - s.start_ns);
    ++t.count;
  }
  return t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end_ns - s.start_ns));
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  using xtsoc::obs::JsonValue;
  JsonValue events = JsonValue::array();
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) {
    JsonValue e = JsonValue::object();
    e["name"] = s.name;
    e["ph"] = "X";
    e["pid"] = 1;
    e["tid"] = static_cast<std::uint64_t>(s.tid % 100000);
    e["ts"] = static_cast<double>(s.start_ns - t0) / 1e3;
    e["dur"] = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    JsonValue& args = e["args"];
    args = JsonValue::object();
    args["id"] = s.id;
    args["parent"] = s.parent;
    args["sample"] = s.sample;
    events.push_back(std::move(e));
  }
  JsonValue doc = JsonValue::object();
  doc["traceEvents"] = std::move(events);
  return doc.dump();
}

}  // namespace perfbench
