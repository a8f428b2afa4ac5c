// Cycle-level execution of a scheduled program.
//
// The machine is an in-order lockstep VLIW: one VLIW instruction (word) may
// issue per cycle, at its statically scheduled distance from the previous
// word or later. The processor stalls the whole pipe when run-time latency
// differs from the compiler's assumption — cache misses, bank occupancy, or
// non-stride-one vector accesses that the compiler scheduled as stride-one
// (paper §3.3/§4.2: "the compiler schedules all memory operations assuming
// they hit in the cache and the processor is stalled at run-time in case of
// a cache miss or bank conflict").
#pragma once

#include <exception>
#include <span>

#include "mem/hierarchy.hpp"
#include "obs/stall.hpp"
#include "sched/schedule.hpp"
#include "sim/exec.hpp"

namespace vuv {

namespace obs {
class TraceSink;
}

struct RegionStats {
  std::string name;
  Cycle cycles = 0;
  i64 ops = 0;    // dynamic operations (what fetch/decode must handle)
  i64 uops = 0;   // dynamic µ-operations (sub-word items processed)
  i64 words = 0;  // dynamic VLIW instructions fetched
  /// Per-cause split of the stall cycles charged inside this region;
  /// stalls.total() is exactly this region's share of stall_cycles.
  StallBreakdown stalls;
};

struct SimResult {
  std::string config_name;
  Cycle cycles = 0;
  Cycle stall_cycles = 0;  // cycles lost versus the static schedule
  /// Exact per-cause split: stalls.total() == stall_cycles, always.
  StallBreakdown stalls;
  i64 taken_branches = 0;
  /// One-cycle fetch bubbles paid for taken control transfers. Reported
  /// separately: they are part of the static control-flow cost, not of
  /// stall_cycles (which measures slip versus the static schedule).
  i64 branch_bubbles = 0;
  std::vector<RegionStats> regions;
  MemStats mem;

  i64 total_ops() const {
    i64 n = 0;
    for (const auto& r : regions) n += r.ops;
    return n;
  }
  i64 total_uops() const {
    i64 n = 0;
    for (const auto& r : regions) n += r.uops;
    return n;
  }
  /// Cycles spent in vector regions (region id >= 1).
  Cycle vector_cycles() const {
    Cycle n = 0;
    for (size_t i = 1; i < regions.size(); ++i) n += regions[i].cycles;
    return n;
  }
  Cycle scalar_cycles() const { return cycles - vector_cycles(); }
};

/// One configuration's share of a grouped replay (Cpu::run_group): its
/// result, or the error that failed it, exactly as its own Cpu::run() would
/// have returned or thrown.
struct SimOutcome {
  SimResult sim;
  std::exception_ptr error;  // null on success
};

class Cpu {
 public:
  /// Replay `image` under `cfg`. The image is all replay reads: the
  /// schedule it was lowered from may be gone. `cfg` must have the
  /// schedule_signature the image was lowered under (image.signature,
  /// checked); it may differ in `name` and anything in `mem`, since the
  /// compiler assumes every access hits and the memory system is built from
  /// `cfg` at run time. That is how the runner's CompileCache shares one
  /// image between every memory mode and memory-hierarchy design point of
  /// a core. `cfg`, `mem` and `image` must outlive the Cpu.
  Cpu(const MachineConfig& cfg, MainMemory& mem, const ExecImage& image);

  /// Replay `image` once for every configuration of `cfgs` in lockstep
  /// (run_group): one functional walk (CpuState, `mem`, control flow)
  /// drives one timing state per configuration. Every configuration must
  /// pass the signature check above, so they differ only in `name` and
  /// `mem`. `cfgs` must be non-empty and outlive the Cpu.
  Cpu(std::span<const MachineConfig> cfgs, MainMemory& mem,
      const ExecImage& image);

  /// As the first form; `image` must be a lowering of `sp`, which is not
  /// read. Kept only because the benchmark harness's traced pass (vuvbench)
  /// calls it; delete it once that pass moves to the three-argument form.
  Cpu(const ScheduledProgram& /*sp*/, const MachineConfig& cfg,
      MainMemory& mem, const ExecImage& image)
      : Cpu(cfg, mem, image) {}

  /// Pre-fill the L3 with an address range before running (see
  /// MemorySystem::warm); every configuration's memory system is warmed.
  void warm(Addr start, u32 bytes) { warm_.emplace_back(start, bytes); }

  /// Attach a pipeline trace sink for subsequent run() calls (nullptr to
  /// detach). Sinks observe timing; they can never change it — with no
  /// sink attached the replay loop is byte-for-byte the untraced code path.
  /// One configuration only: a grouped replay takes no sink.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  /// Attach a per-static-op stall profile (nullptr to detach). run()
  /// resizes profile->by_op to the image's op count and accumulates every
  /// stalled word issue against the op that bound it. One configuration
  /// only, as set_trace.
  void set_profile(StallProfile* profile) { profile_ = profile; }

  /// Run the one configuration to HALT. Throws SimError if `max_cycles`
  /// elapses first.
  SimResult run(Cycle max_cycles = 4'000'000'000LL);

  /// Run every configuration to HALT from one functional walk and return
  /// their outcomes in `cfgs` order. Never throws for a run-time failure:
  /// a configuration whose issue time reaches `max_cycles` fails alone
  /// (SimError) and the others go on; a functional error (division by
  /// zero, VL out of range, control falling off the program) fails every
  /// configuration still running. Each outcome equals what its own
  /// one-configuration run() returns or throws. One configuration takes
  /// run()'s path.
  std::vector<SimOutcome> run_group(Cycle max_cycles = 4'000'000'000LL);

  /// The execution image being replayed. StallProfile op indices index
  /// this image's `ops` (see obs/profile_report.hpp).
  const ExecImage& image() const { return image_; }

 private:
  std::span<const MachineConfig> cfgs_;  // simulation-time configurations
  MainMemory& mem_;
  const ExecImage& image_;
  std::vector<std::pair<Addr, u32>> warm_;
  obs::TraceSink* trace_ = nullptr;
  StallProfile* profile_ = nullptr;
};

/// Convenience: compile + simulate on `ws`, returning the result. Models the
/// paper's steady-state assumption: the workspace's working set is
/// pre-warmed into the L3 before running, matching run_app (see
/// MemorySystem::warm and DESIGN.md on input scaling). A cold run builds
/// its Cpu directly and does not call warm().
SimResult run_program(Program prog, const MachineConfig& cfg, Workspace& ws);

}  // namespace vuv
