#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "serve/json.hpp"

namespace vuvbench {

using vuv::serve::Json;

namespace {

// Field names and members of Fingerprint, in json() order.
constexpr const char* kFields[] = {"cells",     "cycles",    "stall_raw",
                                   "stall_fu",  "stall_mem", "l1_misses",
                                   "l2_misses", "l2_scalar_misses",
                                   "l3_misses"};
constexpr i64 Fingerprint::*kMembers[] = {
    &Fingerprint::cells,     &Fingerprint::cycles,    &Fingerprint::stall_raw,
    &Fingerprint::stall_fu,  &Fingerprint::stall_mem, &Fingerprint::l1_misses,
    &Fingerprint::l2_misses, &Fingerprint::l2_scalar_misses,
    &Fingerprint::l3_misses};
static_assert(std::size(kFields) == std::size(kMembers));

}  // namespace

void Fingerprint::add(const vuv::SimResult& r) {
  ++cells;
  cycles += r.cycles;
  stall_raw += r.stalls.raw;
  stall_fu += r.stalls.fu_conflict;
  stall_mem += r.stalls.mem_latency;
  l1_misses += r.mem.l1_misses;
  l2_misses += r.mem.l2_misses;
  l2_scalar_misses += r.mem.l2_scalar_misses;
  l3_misses += r.mem.l3_misses;
}

Fingerprint& Fingerprint::operator+=(const Fingerprint& o) {
  for (const auto m : kMembers) this->*m += o.*m;
  return *this;
}

std::string Fingerprint::json() const {
  std::ostringstream os;
  os << '{';
  for (size_t i = 0; i < std::size(kFields); ++i)
    os << (i ? ", " : "") << '"' << kFields[i] << "\": " << this->*kMembers[i];
  os << '}';
  return os.str();
}

Fingerprint Fingerprint::from_json(const Json& j) {
  Fingerprint fp;
  for (size_t i = 0; i < std::size(kFields); ++i) {
    const Json* v = j.find(kFields[i]);
    if (!v) throw vuv::Error(std::string("fingerprint lacks ") + kFields[i]);
    fp.*kMembers[i] = v->as_int();
  }
  return fp;
}

Expected Expected::load(const std::string& path) {
  Expected e;
  if (path.empty()) return e;
  std::ifstream f(path);
  if (!f) throw vuv::Error("cannot read " + path);
  std::ostringstream text;
  text << f.rdbuf();
  const Json root = Json::parse(text.str());
  for (const auto& [workload, seeds] : root.as_object()) {
    if (workload.starts_with("_")) continue;  // comments
    for (const auto& [seed, prints] : seeds.as_object()) {
      for (const auto& [name, obj] : prints.as_object())
        e.by_workload_[workload][seed][name] = Fingerprint::from_json(obj);
    }
  }
  return e;
}

std::optional<Fingerprint> Expected::find(const std::string& workload,
                                          u64 seed,
                                          const std::string& name) const {
  const auto w = by_workload_.find(workload);
  if (w == by_workload_.end()) return std::nullopt;
  for (const std::string& s : {std::string("any"), std::to_string(seed)}) {
    const auto p = w->second.find(s);
    if (p == w->second.end()) continue;
    const auto fp = p->second.find(name);
    if (fp != p->second.end()) return fp->second;
  }
  return std::nullopt;
}

void Expected::perturb() {
  for (auto& [w, seeds] : by_workload_)
    for (auto& [s, prints] : seeds)
      for (auto& [n, fp] : prints) ++fp.cycles;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double h = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(h));
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (h - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double band_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  size_t lo = static_cast<size_t>(std::floor(std::max(0.0, q - 0.05) * n));
  size_t hi = static_cast<size_t>(std::ceil(std::min(1.0, q + 0.05) * n));
  lo = std::min(lo, v.size() - 1);
  hi = std::max(hi, lo + 1);
  double sum = 0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

std::map<std::string, double> registry_values(const std::string& json) {
  std::map<std::string, double> out;
  const Json root = Json::parse(json);
  const Json* metrics = root.find("metrics");
  if (!metrics) return out;
  for (const auto& [name, v] : metrics->as_object()) {
    if (v.is_number()) {
      out[name] = v.as_double();
    } else if (v.is_object()) {
      if (const Json* max = v.find("max")) out[name + ".max"] = max->as_double();
      if (const Json* sum = v.find("sum")) out[name + ".sum"] = sum->as_double();
      if (const Json* n = v.find("count")) out[name + ".count"] = n->as_double();
    }
  }
  return out;
}

}  // namespace vuvbench
