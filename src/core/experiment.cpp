#include "core/experiment.hpp"

namespace vuv {

std::vector<AppOutcome> simulate_group(const std::string& name,
                                       const BuiltApp::Verifier& verify,
                                       Workspace& ws, const ExecImage& image,
                                       std::span<const MachineConfig> cfgs) {
  Cpu cpu(cfgs, ws.mem(), image);
  // Steady-state working set (see MemorySystem::warm and DESIGN.md).
  cpu.warm(0, ws.used());
  std::vector<SimOutcome> sims = cpu.run_group();
  std::vector<AppOutcome> out(cfgs.size());
  bool verified = false;
  std::string verify_error;
  for (size_t i = 0; i < cfgs.size(); ++i) {
    if (sims[i].error) {
      out[i].error = sims[i].error;
      continue;
    }
    if (!verified) {
      verify_error = verify(ws);
      verified = true;
    }
    AppResult& res = out[i].result;
    res.app = name;
    res.config = cfgs[i].name;
    res.sim = std::move(sims[i].sim);
    res.verify_error = verify_error;
    res.verified = verify_error.empty();
  }
  return out;
}

AppResult simulate_app(const std::string& name,
                       const BuiltApp::Verifier& verify, Workspace& ws,
                       const ExecImage& image, const MachineConfig& cfg) {
  std::vector<AppOutcome> out =
      simulate_group(name, verify, ws, image, {&cfg, 1});
  if (out[0].error) std::rethrow_exception(out[0].error);
  return std::move(out[0].result);
}

AppResult run_app_variant(App app, Variant variant, MachineConfig cfg,
                          bool perfect_memory) {
  BuiltApp built = build_app(app, variant);
  return run_built(built, std::move(cfg), perfect_memory);
}

AppResult run_built(BuiltApp& built, MachineConfig cfg, bool perfect_memory) {
  VUV_CHECK(!built.program.blocks.empty(),
            "run_built consumes the program: rebuild the app to run again");
  cfg.mem.perfect = perfect_memory;
  const ExecImage image =
      lower_image(compile(std::move(built.program), cfg), cfg);
  built.program = Program{};  // moved-from: make the single-use state explicit
  return simulate_app(built.name, built.verify, *built.ws, image, cfg);
}

AppResult run_app(App app, MachineConfig cfg, bool perfect_memory) {
  return run_app_variant(app, variant_for(cfg.isa), cfg, perfect_memory);
}

}  // namespace vuv
