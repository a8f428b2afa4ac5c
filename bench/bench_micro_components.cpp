// Microbenchmarks (google-benchmark): throughput of the simulator stack
// itself — packed semantics, cache model, scheduler, and end-to-end
// cycle simulation.
#include <benchmark/benchmark.h>

#include "apps/apps.hpp"
#include "common/rng.hpp"
#include "mem/hierarchy.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

namespace vuv {
namespace {

void BM_PackedEval(benchmark::State& state) {
  Rng rng(1);
  u64 a = rng.next_u32(), b = rng.next_u32();
  for (auto _ : state) {
    benchmark::DoNotOptimize(packed_eval(Opcode::M_PADDSB, a, b, 0));
    benchmark::DoNotOptimize(packed_eval(Opcode::M_PSADBW, a, b, 0));
    benchmark::DoNotOptimize(packed_eval(Opcode::M_PMULHH, a, b, 0));
    a = a * 0x9e3779b97f4a7c15ull + 1;
  }
  state.SetItemsProcessed(state.iterations() * 3);
}
BENCHMARK(BM_PackedEval);

void BM_CacheAccess(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::vliw(2);
  MemorySystem mem(cfg);
  Rng rng(2);
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mem.scalar_access(rng.below(1u << 20), 8, false, now++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void BM_VectorCacheAccess(benchmark::State& state) {
  MachineConfig cfg = MachineConfig::vector2(2);
  MemorySystem mem(cfg);
  Rng rng(3);
  Cycle now = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mem.vector_access(rng.below(1u << 20) & ~7u, 8, 16, false, now++));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_VectorCacheAccess);

void BM_CompileJpegEnc(benchmark::State& state) {
  for (auto _ : state) {
    BuiltApp app = build_app(App::kJpegEnc, Variant::kVector);
    benchmark::DoNotOptimize(compile(std::move(app.program), MachineConfig::vector2(2)));
  }
}
BENCHMARK(BM_CompileJpegEnc)->Unit(benchmark::kMillisecond);

void BM_SimulateGsmDec(benchmark::State& state) {
  for (auto _ : state) {
    BuiltApp app = build_app(App::kGsmDec, Variant::kMusimd);
    const ScheduledProgram sp = compile(std::move(app.program), MachineConfig::musimd(2));
    const ExecImage image = lower_image(sp, sp.cfg);
    Cpu cpu(sp, sp.cfg, app.ws->mem(), image);
    benchmark::DoNotOptimize(cpu.run());
  }
}
BENCHMARK(BM_SimulateGsmDec)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vuv

BENCHMARK_MAIN();
