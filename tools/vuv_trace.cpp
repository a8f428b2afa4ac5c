// vuv_trace — cycle-level observability driver for a single (app, config,
// memory-mode) cell: run the simulator with a pipeline trace sink and the
// stall profiler attached, write a Chrome trace_event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev) and a "top stalling ops"
// stall-attribution report.
//
//   vuv_trace --app gsm_dec --config Vector2-4w --trace gsm.trace.json
//   vuv_trace --app jpeg_enc --config VLIW-8w --profile - --top 10
//   vuv_trace --app mpeg2_dec --config Vector1-2w --perfect --profile m.json
//
// Output is deterministic: the same cell produces byte-identical trace and
// profile files on every run (tests/stall_trace_test.cpp locks this).
#include <iostream>

#include "cli.hpp"
#include "common/log.hpp"
#include "core/experiment.hpp"
#include "obs/profile_report.hpp"
#include "obs/trace.hpp"

using namespace vuv;

namespace {

const cli::Usage kUsage{
    "vuv_trace",
    "Trace one simulation cell: pipeline events + stall attribution.",
    "",
    {
        {"--app NAME",
         "app to run (default: gsm_dec)\n"
         "names: jpeg_enc jpeg_dec mpeg2_enc mpeg2_dec gsm_enc\n"
         "gsm_dec imgpipe"},
        {"--config NAME", "Table-2 configuration (default: Vector2-4w)"},
        {"--variant V",
         "code variant: scalar, musimd or vector\n"
         "(default: the best variant the config's ISA supports)"},
        {"--perfect", "simulate with perfect memory (paper 5.1)"},
        {"--trace PATH",
         "write the Chrome trace_event JSON to PATH (- = stdout)"},
        {"--profile PATH",
         "write the stall-attribution report to PATH (- = stdout;\n"
         ".json extension selects JSON, anything else text).\n"
         "Default: text report to stdout"},
        {"--top N",
         "ops listed in the top-stalling-ops section (default 20)"},
    },
    {
        "vuv_trace --app gsm_dec --config Vector2-4w --trace gsm.trace.json",
        "vuv_trace --app jpeg_enc --config VLIW-8w --profile - --top 10",
        "vuv_trace --app mpeg2_dec --config Vector1-2w --perfect --profile m.json",
    }};

}  // namespace

int main(int argc, char** argv) {
  std::string app_name_s = "gsm_dec", config_name = "Vector2-4w";
  std::string variant_s, trace_path, profile_path;
  bool perfect = false;
  i32 top = 20;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw Error("missing value for " + arg);
        return argv[++i];
      };
      if (arg == "-h" || arg == "--help") {
        std::cout << kUsage.text();
        return 0;
      } else if (arg == "--app") {
        app_name_s = value();
      } else if (arg == "--config") {
        config_name = value();
      } else if (arg == "--variant") {
        variant_s = value();
      } else if (arg == "--perfect") {
        perfect = true;
      } else if (arg == "--trace") {
        trace_path = value();
      } else if (arg == "--profile") {
        profile_path = value();
      } else if (arg == "--top") {
        top = cli::parse_positive_int(arg, value());
      } else {
        throw Error("unknown option: " + arg + " (see --help)");
      }
    }

    const App app = app_by_name(app_name_s);
    MachineConfig cfg = MachineConfig::table2_by_name(config_name);
    cfg.mem.perfect = perfect;
    const Variant variant =
        variant_s.empty() ? variant_for(cfg.isa) : variant_by_name(variant_s);

    BuiltApp built = build_app(app, variant);
    const u32 used = built.ws->used();
    const ScheduledProgram sp = compile(std::move(built.program), cfg);

    const ExecImage image = lower_image(sp, sp.cfg);
    Cpu cpu(sp.cfg, built.ws->mem(), image);
    cpu.warm(0, used);  // steady-state working set, like every other driver
    obs::ChromeTraceSink sink;
    StallProfile profile;
    if (!trace_path.empty()) cpu.set_trace(&sink);
    cpu.set_profile(&profile);
    const SimResult res = cpu.run();

    const std::string verify_error = built.verify(*built.ws);
    if (!verify_error.empty())
      VUV_ERROR("vuv_trace: VERIFICATION FAILED: " << verify_error);

    if (!trace_path.empty()) {
      cli::write_output(trace_path,
                        [&](std::ostream& os) { sink.write(os); });
      std::cerr << "[vuv_trace] " << sink.events().size()
                << " trace events\n";
    }

    const obs::ProfileMeta meta{app_name_s, cfg.name,
                                perfect ? "perfect" : "realistic"};
    const std::vector<obs::ProfileRow> rows =
        obs::profile_rows(profile, cpu.image());
    const size_t top_n = static_cast<size_t>(top);
    cli::write_output(profile_path, [&](std::ostream& os) {
      if (profile_path.ends_with(".json"))
        obs::write_profile_json(os, meta, res, rows, top_n);
      else
        obs::write_profile_text(os, meta, res, rows, top_n);
    });

    return verify_error.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "vuv_trace: " << e.what() << "\n";
    return 2;
  }
}
