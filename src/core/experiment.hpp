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
/// replay `image` under `cfg` against `ws` in place, with `ws`'s working set
/// pre-warmed into the L3, then check the outputs with `verify`. `ws` must
/// hold the app's initial memory: the app's own workspace (run_built), or a
/// copy of its unit's built snapshot (the Runner, which builds each
/// app|variant once for all of its cells; a copy costs only the bytes
/// written, see MainMemory). `cfg` must agree with the image's lowering
/// configuration on every field its code reads; it may differ in `name`,
/// `isa`, `mem` and the fields of classes the code does not use (see Cpu),
/// and the memory system and functional units are built from it. The
/// one-configuration case of simulate_group: throws what that returns as
/// its error.
AppResult simulate_app(const std::string& name,
                       const BuiltApp::Verifier& verify, Workspace& ws,
                       const ExecImage& image, const MachineConfig& cfg);

/// One configuration's share of simulate_group: its result, or the error
/// its own simulate_app would have thrown.
struct AppOutcome {
  AppResult result;
  std::exception_ptr error;  // null on success
};

/// simulate_app for every configuration of `cfgs` from one functional walk
/// (Cpu::run_group): `ws` is replayed once and verified once, and each
/// configuration gets its own timing and memory system. The outputs do not
/// depend on timing, so one verify speaks for every configuration that
/// finished. Outcomes come in `cfgs` order, and a replay failure is
/// reported per configuration (see Cpu::run_group). One configuration
/// takes the single-state replay path.
std::vector<AppOutcome> simulate_group(const std::string& name,
                                       const BuiltApp::Verifier& verify,
                                       Workspace& ws, const ExecImage& image,
                                       std::span<const MachineConfig> cfgs);

}  // namespace vuv
