// Stall attribution and pipeline tracing: hand-built single-hazard
// programs pin each StallCause (the block-local scheduler resolves
// in-block dependencies at the compiler's assumed latencies, so runtime
// stalls only arise across block boundaries or when runtime latency
// exceeds the assumption); trace output is byte-deterministic; and an
// attached sink/profile never changes simulated timing.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <vector>

#include "apps/apps.hpp"
#include "ir/builder.hpp"
#include "obs/profile_report.hpp"
#include "obs/trace.hpp"
#include "sched/schedule.hpp"
#include "sim/cpu.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace {

// ---- single-hazard programs ------------------------------------------------

// RAW across a block boundary: a MUL (latency 3) is the last useful op of
// one block, its consumer the first op of the fallthrough block. Perfect
// memory rules out kMemLatency; scalar code on a 2-wide VLIW rules out
// any cross-block FU conflict (every scalar op frees its unit next cycle).
TEST(StallCausesPinned, CrossBlockRawIsTheOnlyCause) {
  Workspace ws;
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg base = b.movi(out.addr);
  Reg x = b.movi(7);
  Reg y = b.movi(6);
  Reg p = b.mul(x, y);  // latency 3: result not ready at the next block entry
  const i32 next = b.new_block();
  b.set_fallthrough(b.current_block(), next);
  b.switch_to(next);
  Reg q = b.add(p, x);  // must wait for the MUL writeback
  b.std_(q, base, 0, out.group);

  MachineConfig cfg = MachineConfig::vliw(2);
  cfg.mem.perfect = true;
  const SimResult r = run_program(b.take(), cfg, ws);

  EXPECT_EQ(ws.read_u64(out), 49u);
  EXPECT_GT(r.stalls.raw, 0) << "cross-block MUL->ADD must slip";
  EXPECT_EQ(r.stalls.fu_conflict, 0);
  EXPECT_EQ(r.stalls.mem_latency, 0);
  EXPECT_EQ(r.stalls.total(), r.stall_cycles);
}

// Memory latency: a cold load (no warm-up, realistic hierarchy) completes
// far later than the compiler's hit assumption; the dependent ADDI charges
// the slip to kMemLatency, not kRaw.
TEST(StallCausesPinned, ColdMissIsMemLatencyNotRaw) {
  Workspace ws;
  Buffer in = ws.alloc(8);
  Buffer out = ws.alloc(8);
  ProgramBuilder b;
  Reg pin = b.movi(in.addr);
  Reg pout = b.movi(out.addr);
  Reg v = b.ldd(pin, 0, in.group);  // cold: full main-memory latency
  Reg w = b.addi(v, 5);
  b.std_(w, pout, 0, out.group);

  // A Cpu without warm(): the load misses all the way to main memory.
  const ScheduledProgram sp = compile(b.take(), MachineConfig::vliw(2));
  const ExecImage image = lower_image(sp, sp.cfg);
  const SimResult r = Cpu(sp.cfg, ws.mem(), image).run();

  EXPECT_EQ(ws.read_u64(out), 5u);
  EXPECT_GT(r.stalls.mem_latency, 0) << "cold miss must stall the consumer";
  EXPECT_EQ(r.stalls.raw, 0);
  EXPECT_EQ(r.stalls.fu_conflict, 0);
  EXPECT_EQ(r.stalls.total(), r.stall_cycles);
}

// FU conflict: with VL=16 on 4 lanes a vector op occupies its unit for 4
// cycles. Issue one as the last op of a block, then an independent vector
// op at the head of the fallthrough block: the only reason it cannot issue
// is the busy vector unit (perfect memory; operands long since ready).
TEST(StallCausesPinned, BusyVectorUnitIsFuConflict) {
  MachineConfig cfg = MachineConfig::table2_by_name("Vector1-2w");
  cfg.mem.perfect = true;
  const i64 vl = kMaxVl;  // 16 on 4 lanes: occupancy 4 cycles

  Workspace ws;
  Buffer in = ws.alloc(static_cast<u32>(vl) * 8);
  Buffer out = ws.alloc(static_cast<u32>(vl) * 8);
  ProgramBuilder b;
  Reg pin = b.movi(in.addr);
  Reg pout = b.movi(out.addr);
  b.setvl(vl);
  b.setvs(8);
  Reg va = b.vld(pin, 0, in.group);
  Reg v1 = b.v2(Opcode::V_PADDH, va, va);  // occupies the vector unit
  const i32 next = b.new_block();
  b.set_fallthrough(b.current_block(), next);
  b.switch_to(next);
  Reg v2 = b.v2(Opcode::V_PADDH, va, va);  // independent, but the unit is busy
  b.vst(v1, pout, 0, out.group);
  b.vst(v2, pout, 0, out.group);

  const SimResult r = run_program(b.take(), cfg, ws);

  EXPECT_GT(r.stalls.fu_conflict, 0) << "vector unit occupancy must bind";
  EXPECT_EQ(r.stalls.raw, 0);
  EXPECT_EQ(r.stalls.mem_latency, 0);
  EXPECT_EQ(r.stalls.total(), r.stall_cycles);
}

// ---- trace determinism and null-sink identity ------------------------------

struct Traced {
  SimResult res;
  std::string trace;
  std::vector<obs::ChromeTraceSink::Event> events;
  StallProfile profile;
};

// One full observed run of gsm_dec on Vector2-4w. When `image` is given
// the Cpu replays the shared pre-lowered image (the sweep-runner path);
// otherwise it lowers its own. `with_sink` false leaves the trace empty.
Traced run_observed(const ScheduledProgram& sp, const MachineConfig& cfg,
                    const ExecImage* image, bool with_sink) {
  BuiltApp built = build_app(App::kGsmDec, variant_for(cfg.isa));
  const ExecImage own = image ? ExecImage{} : lower_image(sp, sp.cfg);
  Cpu cpu(sp, cfg, built.ws->mem(), image ? *image : own);
  cpu.warm(0, built.ws->used());
  obs::ChromeTraceSink sink;
  Traced t;
  if (with_sink) cpu.set_trace(&sink);
  cpu.set_profile(&t.profile);
  t.res = cpu.run();
  EXPECT_EQ(built.verify(*built.ws), "");
  if (with_sink) {
    std::ostringstream os;
    sink.write(os);
    t.trace = os.str();
    t.events = sink.events();
  }
  return t;
}

void expect_same_timing(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.stall_cycles, b.stall_cycles);
  EXPECT_EQ(a.stalls.raw, b.stalls.raw);
  EXPECT_EQ(a.stalls.fu_conflict, b.stalls.fu_conflict);
  EXPECT_EQ(a.stalls.mem_latency, b.stalls.mem_latency);
  EXPECT_EQ(a.taken_branches, b.taken_branches);
  EXPECT_EQ(a.branch_bubbles, b.branch_bubbles);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (size_t i = 0; i < a.regions.size(); ++i) {
    EXPECT_EQ(a.regions[i].cycles, b.regions[i].cycles);
    EXPECT_EQ(a.regions[i].stalls.total(), b.regions[i].stalls.total());
  }
}

TEST(Trace, DeterministicBytesAndNullSinkIdentity) {
  const MachineConfig cfg = MachineConfig::table2_by_name("Vector2-4w");
  BuiltApp built = build_app(App::kGsmDec, variant_for(cfg.isa));
  const ScheduledProgram sp = compile(std::move(built.program), cfg);
  const ExecImage image = lower_image(sp, cfg);

  const Traced a = run_observed(sp, cfg, nullptr, true);
  const Traced b = run_observed(sp, cfg, nullptr, true);
  const Traced c = run_observed(sp, cfg, &image, true);  // shared image
  const Traced plain = run_observed(sp, cfg, nullptr, false);

  ASSERT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace) << "trace must be byte-deterministic";
  EXPECT_EQ(a.trace, c.trace) << "shared image must not change the trace";

  // Observation can never perturb timing: a traced+profiled run reports
  // exactly what an unobserved run reports.
  expect_same_timing(a.res, plain.res);
  expect_same_timing(a.res, c.res);

  // The profile partitions stall_cycles over static ops.
  Cycle prof_total = 0;
  for (const auto& op : a.profile.by_op) prof_total += op.total();
  EXPECT_EQ(prof_total, a.res.stall_cycles);
  EXPECT_EQ(a.profile.by_op.size(), image.ops.size());

  // Timestamps are monotone per track (what a CI step re-checks on the
  // emitted JSON with an independent parser).
  ASSERT_FALSE(a.events.empty());
  std::map<i32, Cycle> last;
  for (const obs::ChromeTraceSink::Event& e : a.events) {
    auto it = last.find(e.tid);
    if (it != last.end()) {
      EXPECT_GE(e.ts, it->second);
    }
    last[e.tid] = e.ts;
  }
}

// profile_rows: sorted by total stall descending, zero-stall ops dropped,
// and coordinates index back into the image.
TEST(Trace, ProfileRowsSortedAndConsistent) {
  const MachineConfig cfg = MachineConfig::table2_by_name("Vector2-4w");
  BuiltApp built = build_app(App::kGsmDec, variant_for(cfg.isa));
  const ScheduledProgram sp = compile(std::move(built.program), cfg);

  BuiltApp run_ws = build_app(App::kGsmDec, variant_for(cfg.isa));
  const ExecImage image = lower_image(sp, sp.cfg);
  Cpu cpu(sp, sp.cfg, run_ws.ws->mem(), image);
  cpu.warm(0, run_ws.ws->used());
  StallProfile profile;
  cpu.set_profile(&profile);
  const SimResult res = cpu.run();

  const std::vector<obs::ProfileRow> rows =
      obs::profile_rows(profile, cpu.image());
  ASSERT_FALSE(rows.empty()) << "gsm_dec on a realistic hierarchy must stall";
  Cycle total = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_GT(rows[i].stalls.total(), 0) << "zero-stall ops must be dropped";
    if (i > 0) {
      EXPECT_GE(rows[i - 1].stalls.total(), rows[i].stalls.total());
    }
    EXPECT_LT(rows[i].op_index, cpu.image().ops.size());
    total += rows[i].stalls.total();
  }
  EXPECT_EQ(total, res.stall_cycles);

  std::ostringstream text, json;
  const obs::ProfileMeta meta{"gsm_dec", cfg.name, "realistic"};
  obs::write_profile_text(text, meta, res, rows, 10);
  obs::write_profile_json(json, meta, res, rows, 10);
  EXPECT_NE(text.str().find("top stalling ops"), std::string::npos);
  EXPECT_NE(json.str().find("\"stalls\""), std::string::npos);
}

}  // namespace
}  // namespace vuv
