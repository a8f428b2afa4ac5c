// Lane-path parity lock: the simulator's one vector lane path (sim/exec.cpp
// over sim/packed_ref.hpp) against independent evidence, per op and
// end to end.
//
// The three test names are kept from the host-SIMD kernel-parity suite this
// file used to hold, so their history stays continuous; what each checks now:
//
//   - SimdKernelParity.EveryKernelMatchesScalarForEveryVl: every
//     V_PADDB..V_PSHUFH opcode plus VSADACC and VMACH, at every vl in
//     1..16, on saturation-corner and random operands (shift and shuffle
//     forms under each of kShiftImms). One program per (opcode, vl) loads
//     the operands with VLD, runs the op and stores the result (for the
//     accumulator ops, both the SUMACB and the SUMACH reduction, as the
//     generator's epilogue does; at vl 16 a VMACH loop also wraps the
//     48-bit accumulator lanes); diff_program must then agree with the
//     reference interpreter, whose packed semantics are implemented
//     independently in src/ref, on Vector1-2w and Vector2-4w.
//   - SimdParity.LockedMatrixMatchesScalarFieldByFieldAndByteForByte: the
//     84-cell locked matrix of sim_equivalence_test through one Runner at
//     four workers, which share unit snapshots and schedules, must equal a
//     private run_app of each cell field by field, and the three reports
//     rendered from both outcome lists must be byte-identical.
//   - SimdParity.CorpusReplaysAgreeUnderEveryLevel: every committed corpus
//     entry replays through diff_program on every Table-2 configuration of
//     its variant (3 VLIW, 3 µSIMD, 4 Vector), with realistic memory.
#include <gtest/gtest.h>

#include <array>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "core/experiment.hpp"
#include "ir/builder.hpp"
#include "ref/diff.hpp"
#include "ref/gen.hpp"
#include "runner/report.hpp"
#include "runner/runner.hpp"
#include "sim_result_eq.hpp"

namespace vuv {
namespace {

// ---- per-op lane parity -------------------------------------------------------

/// Saturation/overflow corner words every packed element width trips on.
constexpr u64 kCorners[] = {
    0ull,
    ~0ull,
    0x8000800080008000ull,  // INT16_MIN lanes
    0x7fff7fff7fff7fffull,  // INT16_MAX lanes
    0x8080808080808080ull,  // INT8_MIN lanes
    0x7f7f7f7f7f7f7f7full,  // INT8_MAX lanes
    0x8000000080000000ull,  // INT32_MIN lanes
    0x0001000100010001ull,
    0xffff0000ffff0000ull,
};
constexpr size_t kNumCorners = sizeof(kCorners) / sizeof(kCorners[0]);
constexpr i64 kShiftImms[] = {0, 1, 3, 7, 15, 16, 31, 32, 63, 64, 0xE4, 0x1B};
constexpr int kReps = 10;
constexpr u32 kVecBytes = 16 * 8;

std::array<u64, 16> make_operand(std::mt19937_64& rng, int rep) {
  std::array<u64, 16> w{};
  for (size_t e = 0; e < w.size(); ++e)
    // First rounds sweep the corner values across lanes; later rounds are
    // uniform random.
    w[e] = rep < 4 ? kCorners[(e + static_cast<size_t>(rep) * 3) % kNumCorners]
                   : rng();
  return w;
}

void write_words(Workspace& ws, const Buffer& buf, u32 off,
                 const std::array<u64, 16>& w) {
  for (size_t e = 0; e < w.size(); ++e)
    ws.mem().store(buf.addr + off + 8 * e, 8, w[e]);
}

struct LaneProgram {
  Workspace ws;
  Program program;
};

/// One program per (vop, vl): kReps operand pairs, each loaded with VLD and
/// run through `vop`, every result stored to a fresh slot of `out`.
void build_lane_program(LaneProgram& lp, Opcode vop, i32 vl,
                        std::mt19937_64& rng) {
  const bool acc_op = vop == Opcode::VSADACC || vop == Opcode::VMACH;
  const bool shift =
      !acc_op && (op_info(vop).flags.has_imm || vop == Opcode::V_PSHUFH);
  const u32 per_rep = acc_op ? 16 : shift ? kVecBytes * std::size(kShiftImms)
                                          : kVecBytes;
  const Buffer in_a = lp.ws.alloc(kVecBytes * kReps);
  const Buffer in_b = lp.ws.alloc(kVecBytes * kReps);
  const Buffer out = lp.ws.alloc(per_rep * kReps + 16);

  ProgramBuilder b;
  b.setvl(vl);
  b.setvs(8);
  const Reg pa = b.movi(in_a.addr), pb = b.movi(in_b.addr),
            po = b.movi(out.addr);
  const Reg acc = acc_op ? b.clracc() : Reg{};
  for (int rep = 0; rep < kReps; ++rep) {
    const u32 in_off = kVecBytes * static_cast<u32>(rep);
    write_words(lp.ws, in_a, in_off, make_operand(rng, rep));
    write_words(lp.ws, in_b, in_off, make_operand(rng, rep + 1));
    const Reg va = b.vld(pa, in_off, in_a.group);
    const Reg vb = b.vld(pb, in_off, in_b.group);
    i64 off = static_cast<i64>(per_rep) * rep;
    if (acc_op) {
      // The accumulator carries across reps, so later reps start nonzero.
      if (vop == Opcode::VSADACC)
        b.vsadacc(acc, va, vb);
      else
        b.vmach(acc, va, vb);
      b.std_(b.sumacb(acc), po, off, out.group);
      b.std_(b.sumach(acc), po, off + 8, out.group);
    } else if (shift) {
      for (const i64 imm : kShiftImms) {
        b.vst(b.vi(vop, va, imm), po, off, out.group);
        off += kVecBytes;
      }
    } else {
      b.vst(b.v2(vop, va, vb), po, off, out.group);
    }
  }
  if (vop == Opcode::VMACH && vl == 16) {
    // Drive the halfword lanes past the 48-bit accumulator range: each
    // VMACH of INT16_MIN squares adds 16 * 2^30 per lane, so 2^13 of them
    // reach 2^47 and wrap.
    const Buffer mins = lp.ws.alloc(kVecBytes);
    std::array<u64, 16> w{};
    w.fill(0x8000800080008000ull);
    write_words(lp.ws, mins, 0, w);
    const Reg vm = b.vld(b.movi(mins.addr), 0, mins.group);
    b.for_range(0, (1 << 13) + 5, 1, [&](Reg) { b.vmach(acc, vm, vm); });
    const i64 off = static_cast<i64>(per_rep) * kReps;
    b.std_(b.sumacb(acc), po, off, out.group);
    b.std_(b.sumach(acc), po, off + 8, out.group);
  }
  lp.program = b.take();
}

TEST(SimdKernelParity, EveryKernelMatchesScalarForEveryVl) {
  std::vector<Opcode> ops;
  for (int o = static_cast<int>(Opcode::V_PADDB);
       o <= static_cast<int>(Opcode::V_PSHUFH); ++o)
    ops.push_back(static_cast<Opcode>(o));
  ops.push_back(Opcode::VSADACC);
  ops.push_back(Opcode::VMACH);
  ASSERT_EQ(ops.size(), 51u + 2u);  // every packed op, VSADACC, VMACH

  const MachineConfig cfgs[] = {MachineConfig::vector1(2),
                                MachineConfig::vector2(4)};
  std::mt19937_64 rng(0x5eedc0de);
  for (const Opcode vop : ops) {
    SCOPED_TRACE(op_name(vop));
    for (i32 vl = 1; vl <= 16; ++vl) {
      LaneProgram lp;
      build_lane_program(lp, vop, vl, rng);
      for (const MachineConfig& cfg : cfgs) {
        const DiffReport rep =
            diff_program(lp.program, lp.ws.mem(), lp.ws.used(), cfg);
        ASSERT_TRUE(rep.ok) << "vl=" << vl << " on " << cfg.name << ": "
                            << rep.error;
      }
    }
  }
}

// ---- end-to-end matrix parity -------------------------------------------------

/// The locked matrix of tests/sim_equivalence_test.cpp: the 72 cells pinned
/// from the seed simulator plus the imgpipe rows.
SweepSpec locked_spec() {
  SweepSpec spec =
      SweepSpec::matrix(table1_apps(), MachineConfig::all_table2(), {false});
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    if (cfg.name == "VLIW-4w" || cfg.name == "Vector2-4w")
      for (App a : table1_apps()) spec.add(a, cfg, /*perfect=*/true);
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    spec.add(App::kImgPipe, cfg, /*perfect=*/false);
  for (const MachineConfig& cfg : MachineConfig::all_table2())
    if (cfg.name == "VLIW-4w" || cfg.name == "Vector2-4w")
      spec.add(App::kImgPipe, cfg, /*perfect=*/true);
  return spec;
}

std::string render_all(const std::vector<CellOutcome>& outcomes) {
  const BenchJsonReport json("simd_parity");
  const CsvReport csv;
  const TableReport table;
  std::ostringstream os;
  json.write(os, outcomes);
  csv.write(os, outcomes);
  table.write(os, outcomes);
  return os.str();
}

TEST(SimdParity, LockedMatrixMatchesScalarFieldByFieldAndByteForByte) {
  const SweepSpec spec = locked_spec();
  ASSERT_EQ(spec.size(), 84u);

  RunnerOptions opts;
  opts.jobs = 4;
  Runner runner(opts);
  const std::vector<CellOutcome> shared = runner.run(spec);
  ASSERT_EQ(shared.size(), spec.size());

  std::vector<CellOutcome> direct;
  for (const CellOutcome& o : shared) {
    SCOPED_TRACE(o.cell.key());
    ASSERT_TRUE(o.result.verified) << o.result.verify_error;
    CellOutcome d;
    d.cell = o.cell;
    d.result = run_app(o.cell.app, o.cell.cfg, o.cell.perfect);
    ASSERT_TRUE(d.result.verified) << d.result.verify_error;
    EXPECT_EQ(d.result.app, o.result.app);
    EXPECT_EQ(d.result.config, o.result.config);
    expect_identical(o.result.sim, d.result.sim);
    direct.push_back(std::move(d));
  }
  EXPECT_EQ(render_all(shared), render_all(direct))
      << "reports must be byte-identical between the shared Runner and "
         "private runs";
}

// ---- corpus replay parity -----------------------------------------------------

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(VUV_CORPUS_DIR))
    if (entry.path().extension() == ".vuvgen")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(SimdParity, CorpusReplaysAgreeUnderEveryLevel) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_GE(files.size(), 20u);
  for (const std::string& path : files) {
    std::ifstream f(path);
    ASSERT_TRUE(f.is_open()) << path;
    std::ostringstream text;
    text << f.rdbuf();
    const GenProgram p = from_text(text.str());
    size_t replays = 0;
    for (const MachineConfig& cfg : MachineConfig::all_table2()) {
      if (variant_for(cfg.isa) != p.variant) continue;
      ASSERT_FALSE(cfg.mem.perfect);
      const GenBuilt built = materialize(p);
      const DiffReport rep =
          diff_program(built.program, built.ws->mem(), built.ws->used(), cfg);
      EXPECT_TRUE(rep.ok) << path << " on " << cfg.name << ": " << rep.error;
      ++replays;
    }
    // Table 2 has 3 VLIW, 3 µSIMD and 4 Vector configurations.
    EXPECT_EQ(replays, p.variant == Variant::kVector ? 4u : 3u) << path;
  }
}

}  // namespace
}  // namespace vuv
