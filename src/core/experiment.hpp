// Public facade: compile and simulate one application on one machine
// configuration, with output verification against the golden codecs.
// This is the API the benchmark harness, the examples and the integration
// tests consume.
#pragma once

#include "apps/apps.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu.hpp"

namespace vuv {

struct AppResult {
  std::string app;
  std::string config;
  SimResult sim;
  bool verified = false;
  std::string verify_error;
};

/// Build the app in the variant matching `cfg`'s ISA level, compile it for
/// `cfg`, simulate, and verify outputs. Set `perfect_memory` for the paper's
/// §5.1 perfect-memory runs.
AppResult run_app(App app, MachineConfig cfg, bool perfect_memory = false);

/// As run_app but with an explicit variant (used by tests/ablations).
AppResult run_app_variant(App app, Variant variant, MachineConfig cfg,
                          bool perfect_memory = false);

/// Compile and simulate an app built by the caller (e.g. a parameterized
/// imgpipe instance) in place: `built.ws` keeps the simulated outputs, so
/// tests can read stage buffers back after the run. Single-use — the call
/// consumes `built.program` (asserted), so build again to run again.
AppResult run_built(BuiltApp& built, MachineConfig cfg,
                    bool perfect_memory = false);

/// The simulate step every entry point shares, the sweep Runner's included:
/// replay `image` (the lowering of `sp`) under `cfg` against `ws` in place,
/// with `ws`'s working set pre-warmed into the L3, then check the outputs
/// with `verify`. `ws` must hold the app's initial memory: the app's own
/// workspace (run_built), or a copy of its unit's built snapshot (the
/// Runner, which builds each app|variant once for all of its cells; a copy
/// costs only the bytes written, see MainMemory). `cfg` must match sp.cfg
/// up to `name` and `mem.perfect` (see Cpu).
AppResult simulate_app(const std::string& name,
                       const BuiltApp::Verifier& verify, Workspace& ws,
                       const ScheduledProgram& sp, const ExecImage& image,
                       const MachineConfig& cfg);

}  // namespace vuv
