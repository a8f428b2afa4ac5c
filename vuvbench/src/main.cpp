// vuvbench: end-to-end and per-layer benchmark of the vuv simulator.
//
//   vuvbench --workload W --seed N --seconds S --trace 0|1
//            [--fingerprints FILE] [--trace-out FILE] [--inject FAULT]
//
// Repeats workload W's fixed work (made from seed N) for about S seconds,
// at least once. With --trace 0 every pass is untraced and the end-to-end
// metrics are reported (medians over passes; latency percentiles over the
// pooled samples). With --trace 1 untraced and traced passes alternate and
// the per-layer metrics are reported, derived from the traced passes'
// spans, which are also written as Chrome trace_event JSON to --trace-out.
//
// Each pass runs alone in a child process (this binary with --pass), so
// every pass starts from the same process and allocator state and reports
// its own peak RSS. Every pass checks its outputs: each cell must verify
// against its golden codec, no oracle cell may diverge, fingerprints must
// match the recorded ones, and every pass (traced or not) must reproduce
// the first pass's fingerprints and compile count. The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; the exit
// status is 0 only when every check passed. --inject makes one check fire
// on purpose (fingerprint: perturbed expectations; corrupt: one simulated
// output byte flipped before BuiltApp::verify in the traced pass; shed: a
// one-cell serve admission queue).
#include <fcntl.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <charconv>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <thread>

#include "record.hpp"

extern char** environ;

namespace vuvbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"batch_s", "s"},
    {"interactive_p50_ms", "ms"},
    {"interactive_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"apps.build_s", "s"},
    {"apps.builds", "count"},
    {"apps.rebuild_s", "s"},
    {"apps.rebuilds", "count"},
    {"apps.verify_s", "s"},
    {"ir.verify_s", "s"},
    {"sched.regalloc_s", "s"},
    {"sched.schedule_s", "s"},
    {"sched.compiles", "count"},
    {"sched.static_ops", "count"},
    {"sched.static_words", "count"},
    {"runner.compile_hits", "count"},
    {"runner.compile_misses", "count"},
    {"runner.compile_useful_ratio", "ratio"},
    {"runner.pool_wait_s", "s"},
    {"runner.result_hits", "count"},
    {"sim.lower_s", "s"},
    {"sim.image_mb", "MiB"},
    {"sim.cpu_init_s", "s"},
    {"sim.run_s", "s"},
    {"sim.cycles", "count"},
    {"sim.mcycles_per_s", "Mcycles/s"},
    {"sim.stall_cycles", "count"},
    {"mem.l1_misses", "count"},
    {"mem.l2_misses", "count"},
    {"mem.l3_misses", "count"},
    {"mem.stall_cycles", "count"},
    {"ref.generate_s", "s"},
    {"ref.materialize_s", "s"},
    {"ref.interpret_s", "s"},
    {"ref.compare_s", "s"},
    {"ref.dyn_ops", "count"},
    {"ref.divergences", "count"},
    {"serve.ack_ms", "ms"},
    {"serve.first_cell_ms", "ms"},
    {"serve.interactive_wait_ms", "ms"},
    {"serve.encode_us", "us"},
    {"serve.replay_cells_per_s", "cells/s"},
    {"serve.shed", "count"},
    {"serve.queue_cells_max", "count"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Span names whose self time is a layer's busy time; "<name>_s" is the
/// metric. Spans not listed (the per-cell container) are harness time.
constexpr const char* kLayerSpans[] = {
    "apps.build",    "apps.rebuild",   "apps.verify",     "ir.verify",
    "sched.regalloc", "sched.schedule", "sim.lower",      "sim.cpu_init",
    "sim.run",       "ref.generate",   "ref.materialize", "ref.interpret",
    "ref.compare",   "runner.compile_cache", "serve.ack", "serve.first_cell",
    "serve.stream",  "serve.encode",
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "vuvbench: " << why
            << "\nusage: vuvbench --workload table_matrix|mem_dse|serve_mix|"
               "oracle_fuzz --seed N --seconds S --trace 0|1\n"
               "                [--fingerprints FILE] [--trace-out FILE]"
               " [--inject fingerprint|corrupt|shed]\n";
  std::exit(2);
}

u64 parse_u64(const std::string& flag, const std::string& v) {
  u64 out = 0;
  const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), out);
  if (ec != std::errc() || end != v.data() + v.size())
    usage("invalid value for " + flag + ": '" + v + "'");
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") {
      o.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = parse_u64(arg, v);
    } else if (arg == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(arg, v));
      if (o.seconds < 1 || o.seconds > 60) usage("--seconds must be 1..60");
    } else if (arg == "--trace") {
      if (v != "0" && v != "1") usage("--trace expects 0 or 1");
      o.trace = v == "1";
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else if (arg == "--fingerprints") {
      o.fingerprints = v;
    } else if (arg == "--pass") {
      if (v != "untraced" && v != "traced") usage("--pass expects untraced|traced");
      o.pass = v;
    } else if (arg == "--origin-ns") {
      o.origin_ns = static_cast<i64>(parse_u64(arg, v));
    } else if (arg == "--inject") {
      if (v != "fingerprint" && v != "corrupt" && v != "shed")
        usage("--inject expects fingerprint, corrupt or shed");
      o.inject = v;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const Options& o) {
  if (o.workload == "table_matrix") return make_table_matrix(o);
  if (o.workload == "mem_dse") return make_mem_dse(o);
  if (o.workload == "serve_mix") return make_serve_mix(o);
  if (o.workload == "oracle_fuzz") return make_oracle_fuzz(o);
  usage("unknown workload '" + o.workload + "'");
}

/// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.starts_with("VmHWM:")) return std::stod(line.substr(6)) / 1024.0;
  return 0;
}

/// The pass process in flight, if any (killed by the watchdog).
std::atomic<pid_t> g_child{0};

/// Ends the run, and the pass process in flight, if it overstays its
/// budget (a hung server).
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, std::chrono::duration<double>(seconds),
                            [this] { return done_; })) {
            std::cerr << "vuvbench: run exceeded " << seconds << " s\n";
            if (const pid_t child = g_child.load(); child > 0) {
              ::kill(child, SIGKILL);
              ::waitpid(child, nullptr, 0);
            }
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

/// Every pass must reproduce the recorded fingerprints and the first
/// pass's fingerprints and compile count.
void check_prints(const Options& o, const Expected& expected,
                  const Prints& reference, i64 ref_compiles,
                  const std::string& label, const Prints& prints,
                  i64 compiles, Tally& t) {
  for (const auto& [name, fp] : prints) {
    std::optional<Fingerprint> want = expected.find(o.workload, o.seed, name);
    // The served realistic batch is the table_matrix work.
    if (!want && o.workload == "serve_mix" && name == "realistic")
      want = expected.find("table_matrix", o.seed, "total");
    if (want && !(*want == fp))
      t.fail(label + " fingerprint '" + name + "' " + fp.json() +
             " differs from the recorded " + want->json());
    const auto ref = reference.find(name);
    if (ref != reference.end() && !(ref->second == fp))
      t.fail(label + " fingerprint '" + name + "' " + fp.json() +
             " differs from the first pass's " + ref->second.json());
  }
  if (compiles != ref_compiles)
    t.fail(label + " ran " + std::to_string(compiles) +
           " compiles, the first pass " + std::to_string(ref_compiles));
}

std::string number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::map<std::string, double> layer_metrics(const Trace& trace,
                                            const TracedPass& p) {
  std::map<std::string, double> m = p.layer;
  const std::map<std::string, Trace::LayerTime> layers = trace.layers();
  double covered = 0;
  for (const char* name : kLayerSpans) {
    const auto it = layers.find(name);
    const double self = it == layers.end() ? 0.0 : it->second.self_s;
    m[std::string(name) + "_s"] = self;
    covered += self;
  }
  const auto spans = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : static_cast<double>(it->second.spans);
  };
  m["apps.builds"] = spans("apps.build");
  m["apps.rebuilds"] = spans("apps.rebuild");
  m["sim.mcycles_per_s"] =
      m["sim.run_s"] > 0 ? m["sim.cycles"] / m["sim.run_s"] * 1e-6 : 0.0;
  m["trace.coverage"] = p.thread_s > 0 ? covered / p.thread_s : 0.0;
  return m;
}

/// Runs one pass in a child process and returns the line it printed.
std::string run_pass_process(const Options& o, const char* pass) {
  std::vector<std::string> args = {
      "vuvbench", "--workload", o.workload, "--seed", std::to_string(o.seed),
      "--pass",   pass,         "--origin-ns", std::to_string(o.origin_ns)};
  if (!o.inject.empty()) {
    args.push_back("--inject");
    args.push_back(o.inject);
  }
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) throw vuv::Error("pipe2 failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  if (rc != 0) {
    ::close(fds[0]);
    throw vuv::Error("cannot start a pass process");
  }
  g_child.store(pid);
  std::string out;
  char buf[65536];
  for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  g_child.store(0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw vuv::Error(std::string("the ") + pass + " pass process failed");
  return out;
}

template <typename Pass>
Pass failed_pass(const std::exception& e) {
  Pass p;
  p.tally.attempted = 1;
  p.tally.fail(std::string("pass aborted: ") + e.what());
  return p;
}

/// Child process: run one pass and print it as one JSON line.
int run_one_pass(const Options& o) {
  // Never outlive the run that started this pass.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 3;
  const std::unique_ptr<Workload> workload = make_workload(o);
  if (o.pass == "untraced") {
    UntracedPass p;
    try {
      p = workload->run_untraced();
    } catch (const std::exception& e) {
      p = failed_pass<UntracedPass>(e);
    }
    p.peak_rss_mb = peak_rss_mb();
    std::cout << to_json(p) << std::endl;
  } else {
    Trace trace(Clock::time_point(std::chrono::duration_cast<Clock::duration>(
        std::chrono::nanoseconds(o.origin_ns))));
    TracedPass p;
    try {
      p = workload->run_traced(trace);
      p.layer = layer_metrics(trace, p);
    } catch (const std::exception& e) {
      p = failed_pass<TracedPass>(e);
    }
    std::cout << to_json(p, trace) << std::endl;
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv) {
  Options o = parse(argc, argv);
  if (!o.pass.empty()) return run_one_pass(o);
  Expected expected = Expected::load(o.fingerprints);
  if (o.inject == "fingerprint") expected.perturb();
  make_workload(o);  // rejects an unknown workload before any pass starts
  const Watchdog watchdog(o.seconds + 150);

  const Clock::time_point origin = Clock::now();
  o.origin_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    origin.time_since_epoch())
                    .count();
  const Clock::time_point deadline =
      origin + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(o.seconds));
  std::vector<UntracedPass> untraced;
  std::vector<TracedPass> traced;
  std::vector<std::unique_ptr<Trace>> traces;
  // At least one round; another only if, at the last round's pace, it
  // ends no later than half a round after the deadline, so a run ends near
  // --seconds and a long pass (serve_mix) still gets two rounds.
  for (Clock::duration round{0}; untraced.empty() ||
                                 Clock::now() + round / 2 <= deadline;) {
    const Clock::time_point round_start = Clock::now();
    try {
      untraced.push_back(untraced_from_json(run_pass_process(o, "untraced")));
    } catch (const std::exception& e) {
      untraced.push_back(failed_pass<UntracedPass>(e));
    }
    if (o.trace) {
      traces.push_back(std::make_unique<Trace>(origin));
      try {
        traced.push_back(
            traced_from_json(run_pass_process(o, "traced"), *traces.back()));
      } catch (const std::exception& e) {
        traced.push_back(failed_pass<TracedPass>(e));
      }
    }
    round = Clock::now() - round_start;
  }

  Tally total;
  const Prints& reference = untraced.front().prints;
  const i64 ref_compiles = untraced.front().compiles;
  auto account = [&](const std::string& label, const Prints& prints,
                     i64 compiles, const Tally& t) {
    total.attempted += t.attempted;
    total.failed += t.failed;
    for (const std::string& e : t.errors) std::cerr << label << ": " << e << "\n";
    Tally checks;
    check_prints(o, expected, reference, ref_compiles, label, prints, compiles,
                 checks);
    total.failed += checks.failed;
    for (const std::string& e : checks.errors) std::cerr << e << "\n";
  };
  for (size_t i = 0; i < untraced.size(); ++i)
    account("untraced pass " + std::to_string(i), untraced[i].prints,
            untraced[i].compiles, untraced[i].tally);
  for (size_t i = 0; i < traced.size(); ++i)
    account("traced pass " + std::to_string(i), traced[i].prints,
            traced[i].compiles, traced[i].tally);
  for (const auto& [name, fp] : reference)
    std::cout << "fingerprint " << name << " " << fp.json() << "\n";

  std::map<std::string, double> values;
  const MetricDef* defs = o.trace ? kPerLayer : kEndToEnd;
  const size_t ndefs = o.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  if (!o.trace) {
    std::vector<double> setup, wall, batch, latency;
    for (const UntracedPass& p : untraced) {
      setup.insert(setup.end(), p.setup_s.begin(), p.setup_s.end());
      wall.push_back(p.wall_s);
      batch.push_back(p.batch_s);
      latency.insert(latency.end(), p.latency_ms.begin(), p.latency_ms.end());
    }
    values["setup_s"] = median(setup);
    values["wall_s"] = median(wall);
    values["batch_s"] = median(batch);
    values["interactive_p50_ms"] = band_quantile(latency, 0.5);
    values["interactive_p90_ms"] = band_quantile(latency, 0.9);
    std::vector<double> rss;
    for (const UntracedPass& p : untraced) rss.push_back(p.peak_rss_mb);
    values["peak_rss_mb"] = median(rss);
    std::cout << "passes " << untraced.size() << ", latency samples "
              << latency.size() << "; wall_s per pass:";
    for (const double w : wall) std::cout << " " << number(w);
    std::cout << "\n";
  } else {
    // Medians over passes: registry counters from the untraced passes,
    // span-derived values from the traced passes (which take precedence).
    std::map<std::string, std::vector<double>> samples;
    for (const UntracedPass& p : untraced)
      for (const auto& [k, v] : p.layer) samples[k].push_back(v);
    std::map<std::string, std::vector<double>> traced_samples;
    std::vector<double> traced_wall, untraced_wall;
    for (size_t i = 0; i < traced.size(); ++i) {
      for (const auto& [k, v] : traced[i].layer) traced_samples[k].push_back(v);
      traced_wall.push_back(traced[i].wall_s);
    }
    for (const UntracedPass& p : untraced) untraced_wall.push_back(p.wall_s);
    for (auto& [k, v] : traced_samples) samples[k] = std::move(v);
    for (const auto& [k, v] : samples) values[k] = median(v);
    const double base = median(untraced_wall);
    values["trace.overhead"] = base > 0 ? median(traced_wall) / base : 0.0;
    std::cout << "passes " << untraced.size() << " untraced, " << traced.size()
              << " traced\n";
    if (!o.trace_out.empty()) {
      const std::filesystem::path out(o.trace_out);
      if (out.has_parent_path())
        std::filesystem::create_directories(out.parent_path());
      std::ofstream f(out);
      write_chrome_trace(f, traces);
      if (!f) {
        std::cerr << "vuvbench: cannot write " << o.trace_out << "\n";
        ++total.failed;
      } else {
        std::cout << "trace written to " << o.trace_out << "\n";
      }
    }
  }

  const bool correct = total.failed == 0;
  std::cout << o.workload << " seed " << o.seed << ": "
            << (correct ? "all checks passed" : "CHECKS FAILED") << "\n";
  for (size_t i = 0; i < ndefs; ++i)
    std::cout << "  " << defs[i].name << " = " << number(values[defs[i].name])
              << " " << defs[i].unit << "\n";
  std::cout << "  failed_ratio = "
            << number(static_cast<double>(total.failed) /
                      static_cast<double>(std::max<i64>(total.attempted, 1)))
            << " ratio (" << total.failed << " of " << total.attempted << ")\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << total.attempted
            << ", \"failed\": " << total.failed << ", \"metrics\": {";
  for (size_t i = 0; i < ndefs; ++i)
    std::cout << (i ? ", " : "") << '"' << defs[i].name << "\": {\"value\": "
              << number(values[defs[i].name]) << ", \"unit\": \""
              << defs[i].unit << "\"}";
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace vuvbench

int main(int argc, char** argv) {
  try {
    return vuvbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "vuvbench: " << e.what() << "\n";
    return 2;
  }
}
