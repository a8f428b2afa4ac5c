#include "core/experiment.hpp"

namespace vuv {

AppResult simulate_app(const std::string& name,
                       const BuiltApp::Verifier& verify, Workspace& ws,
                       const ExecImage& image, const MachineConfig& cfg) {
  Cpu cpu(cfg, ws.mem(), image);
  // Steady-state working set (see MemorySystem::warm and DESIGN.md).
  cpu.warm(0, ws.used());
  AppResult res;
  res.app = name;
  res.config = cfg.name;
  res.sim = cpu.run();
  res.verify_error = verify(ws);
  res.verified = res.verify_error.empty();
  return res;
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
