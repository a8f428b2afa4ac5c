#include "perf/host_perf.hpp"

#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace vuv {

HostPerf measure_host_perf(const SweepSpec& spec, RunnerOptions opts,
                           std::string* metrics_json) {
  Runner runner(opts);
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<CellOutcome> outcomes = runner.run(spec);
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

  HostPerf perf;
  perf.jobs = runner.jobs();
  perf.cells = static_cast<i64>(outcomes.size());
  perf.wall_seconds = wall;
  for (const CellOutcome& o : outcomes) {
    if (!o.result.verified)
      throw SimError("host-perf cell failed verification: " + o.cell.key() +
                     ": " + o.result.verify_error);
    perf.simulated_cycles += o.result.sim.cycles;
    perf.simulate_seconds += o.wall_ms / 1e3;
    perf.cell.push_back({o.cell.key(), o.wall_ms, o.result.sim.cycles});
  }
  perf.cycles_per_second =
      wall > 0 ? static_cast<double>(perf.simulated_cycles) / wall : 0.0;
  obs::Registry& m = runner.metrics();
  perf.compile_seconds =
      static_cast<double>(m.histogram("compile_cache.build_us").sum()) / 1e6;
  perf.unit_build_seconds =
      static_cast<double>(m.histogram("compile_cache.unit_us").sum()) / 1e6;
  if (metrics_json) *metrics_json = runner.metrics().json();
  return perf;
}

namespace {

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(12) << v;
  return os.str();
}

}  // namespace

void write_host_perf_json(std::ostream& os, const HostPerf& perf,
                          const std::string& name) {
  os << "{\n  \"bench\": \"" << name << "\",\n"
     << "  \"jobs\": " << perf.jobs << ",\n"
     << "  \"cells\": " << perf.cells << ",\n"
     << "  \"wall_seconds\": " << num(perf.wall_seconds) << ",\n"
     << "  \"simulated_cycles\": " << perf.simulated_cycles << ",\n"
     << "  \"simulated_cycles_per_second\": " << num(perf.cycles_per_second)
     << ",\n  \"cell\": [";
  for (size_t i = 0; i < perf.cell.size(); ++i) {
    const CellPerf& c = perf.cell[i];
    os << (i ? "," : "") << "\n    {\"key\": \"" << c.key
       << "\", \"wall_ms\": " << num(c.wall_ms)
       << ", \"cycles\": " << c.cycles << "}";
  }
  os << "\n  ]\n}\n";
}

double read_baseline_wall_seconds(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw Error("cannot read perf baseline " + path);
  const std::string text((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  const std::string field = "\"wall_seconds\":";
  const size_t at = text.find(field);
  if (at == std::string::npos)
    throw Error("perf baseline " + path + " has no \"wall_seconds\" field");
  size_t pos = at + field.size();
  while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos])))
    ++pos;
  size_t end = pos;
  while (end < text.size() && text[end] != ',' && text[end] != '}' &&
         !std::isspace(static_cast<unsigned char>(text[end])))
    ++end;
  const std::string value = text.substr(pos, end - pos);
  // strtod reports junk through its end pointer and overflow as HUGE_VAL,
  // where stod throws an exception that names neither file nor value.
  char* parsed = nullptr;
  const double v = std::strtod(value.c_str(), &parsed);
  if (parsed != value.c_str() + value.size() || !std::isfinite(v) || v <= 0)
    throw Error("perf baseline " + path + ": wall_seconds \"" + value +
                "\" is not a finite number above 0");
  return v;
}

}  // namespace vuv
