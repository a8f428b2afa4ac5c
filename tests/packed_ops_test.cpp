// Property tests over the packed (µSIMD) operation semantics: every packed
// opcode is exercised against an independent lane-wise reference model on
// random inputs, both as an M_ op and as the corresponding V_ op with every
// legal vector length.
#include <gtest/gtest.h>

#include <ostream>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sim/cpu.hpp"
#include "sim/exec.hpp"

namespace vuv {
namespace {

// Independent reference for a lane-wise subset of ops (distinct code path
// from packed_eval's map_lanes machinery).
i64 ref_lane(Opcode op, i64 a, i64 b) {
  switch (op) {
    case Opcode::M_PADDSB: return std::clamp<i64>(a + b, -128, 127);
    case Opcode::M_PADDSH: return std::clamp<i64>(a + b, -32768, 32767);
    case Opcode::M_PSUBSB: return std::clamp<i64>(a - b, -128, 127);
    case Opcode::M_PSUBSH: return std::clamp<i64>(a - b, -32768, 32767);
    case Opcode::M_PMINSH: return std::min(a, b);
    case Opcode::M_PMAXSH: return std::max(a, b);
    case Opcode::M_PMULHH: return (a * b) >> 16;
    case Opcode::M_PCMPGTH: return a > b ? -1 : 0;
    default: return 0;
  }
}

// The parameter structs below carry `id`, the text gtest lists as the case's
// GetParam() and ctest appends to the test name. Without it gtest lists a
// byte dump of the struct, whose padding bytes are uninitialised, so a rebuild
// could rename a case; each case keeps the name it was published under.
struct LaneCase {
  Opcode op;
  int bits;
  const char* id;
};

void PrintTo(const LaneCase& c, std::ostream* os) { *os << c.id; }

class PackedLaneOps : public ::testing::TestWithParam<LaneCase> {};

TEST_P(PackedLaneOps, MatchesReferenceModel) {
  const LaneCase c = GetParam();
  Rng rng(static_cast<u64>(c.op) * 77 + 5);
  for (int trial = 0; trial < 200; ++trial) {
    const u64 a = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
    const u64 b = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
    const u64 got = packed_eval(c.op, a, b, 0);
    for (int l = 0; l < 64 / c.bits; ++l) {
      const i64 x = get_lane_signed(a, l, c.bits);
      const i64 y = get_lane_signed(b, l, c.bits);
      EXPECT_EQ(get_lane_signed(got, l, c.bits),
                static_cast<i64>(static_cast<i16>(
                    wrap(ref_lane(c.op, x, y), c.bits) << (16 - c.bits)) >>
                    (16 - c.bits)))
          << op_name(c.op) << " lane " << l;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Saturating, PackedLaneOps,
    ::testing::Values(
        LaneCase{Opcode::M_PADDSB, 8, "8-byte object <2E-00 01-1B 08-00 00-00>"},
        LaneCase{Opcode::M_PADDSH, 16, "8-byte object <2F-00 04-00 10-00 00-00>"},
        LaneCase{Opcode::M_PSUBSB, 8, "8-byte object <35-00 48-00 08-00 00-00>"},
        LaneCase{Opcode::M_PSUBSH, 16, "8-byte object <36-00 55-00 10-00 00-00>"},
        LaneCase{Opcode::M_PMINSH, 16, "8-byte object <41-00 00-00 10-00 00-00>"},
        LaneCase{Opcode::M_PMAXSH, 16, "8-byte object <42-00 00-00 10-00 00-00>"},
        LaneCase{Opcode::M_PMULHH, 16, "8-byte object <3A-00 00-00 10-00 00-00>"},
        LaneCase{Opcode::M_PCMPGTH, 16, "8-byte object <5C-00 00-00 10-00 00-00>"}));

// ---- algebraic properties ---------------------------------------------------

class PackedAlgebra : public ::testing::TestWithParam<int> {};

TEST_P(PackedAlgebra, UnpackRepackRoundTrip) {
  Rng rng(static_cast<u64>(GetParam()));
  const u64 w = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  const u64 lo = packed_eval(Opcode::M_PUNPCKLBH, w, 0, 0);
  const u64 hi = packed_eval(Opcode::M_PUNPCKHBH, w, 0, 0);
  EXPECT_EQ(packed_eval(Opcode::M_PACKUSHB, lo, hi, 0), w);
}

TEST_P(PackedAlgebra, SadViaAccumulatorEqualsPsadbw) {
  Rng rng(static_cast<u64>(GetParam()) + 99);
  const u64 a = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  const u64 b = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  EXPECT_EQ(packed_eval(Opcode::M_PSADBW, a, b, 0), sad_bytes(a, b));
}

TEST_P(PackedAlgebra, AvgIsWithinOneOfMean) {
  Rng rng(static_cast<u64>(GetParam()) + 7);
  const u64 a = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  const u64 b = (static_cast<u64>(rng.next_u32()) << 32) | rng.next_u32();
  const u64 avg = packed_eval(Opcode::M_PAVGB, a, b, 0);
  for (int l = 0; l < 8; ++l) {
    const i64 m = (static_cast<i64>(get_lane(a, l, 8)) + static_cast<i64>(get_lane(b, l, 8)) + 1) / 2;
    EXPECT_EQ(static_cast<i64>(get_lane(avg, l, 8)), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackedAlgebra, ::testing::Range(0, 25));

// ---- vector ops agree with per-word µSIMD at every VL -----------------------

struct VlCase {
  Opcode vop;
  i32 vl;
  const char* id;
};

void PrintTo(const VlCase& c, std::ostream* os) { *os << c.id; }

class VectorMatchesMusimd : public ::testing::TestWithParam<VlCase> {};

TEST_P(VectorMatchesMusimd, ElementwiseEquivalence) {
  const VlCase c = GetParam();
  Rng rng(static_cast<u64>(c.vop) * 131 + static_cast<u64>(c.vl));
  Workspace ws;
  Buffer ba = ws.alloc(128), bb = ws.alloc(128), bo = ws.alloc(128);
  std::vector<u8> da(128), db(128);
  for (auto& v : da) v = static_cast<u8>(rng.below(256));
  for (auto& v : db) v = static_cast<u8>(rng.below(256));
  ws.write_u8(ba, da);
  ws.write_u8(bb, db);

  ProgramBuilder b;
  b.setvl(c.vl);
  b.setvs(8);
  Reg pa = b.movi(ba.addr), pb = b.movi(bb.addr), po = b.movi(bo.addr);
  Reg va = b.vld(pa, 0, ba.group);
  Reg vb = b.vld(pb, 0, bb.group);
  b.vst(b.v2(c.vop, va, vb), po, 0, bo.group);
  run_program(b.take(), MachineConfig::vector1(2), ws);

  const Opcode base = vector_base_op(c.vop);
  for (i32 e = 0; e < c.vl; ++e) {
    const u64 wa = ws.mem().load(ba.addr + 8 * static_cast<Addr>(e), 8, false);
    const u64 wb = ws.mem().load(bb.addr + 8 * static_cast<Addr>(e), 8, false);
    EXPECT_EQ(ws.mem().load(bo.addr + 8 * static_cast<Addr>(e), 8, false),
              packed_eval(base, wa, wb, 0))
        << op_name(c.vop) << " element " << e;
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndLengths, VectorMatchesMusimd,
    ::testing::Values(
        VlCase{Opcode::V_PADDB, 1, "8-byte object <65-00 00-00 01-00 00-00>"},
        VlCase{Opcode::V_PADDB, 16, "8-byte object <65-00 D8-A4 10-00 00-00>"},
        VlCase{Opcode::V_PADDUSH, 3, "8-byte object <6B-00 94-24 03-00 00-00>"},
        VlCase{Opcode::V_PSUBSB, 7, "8-byte object <6F-00 FF-FF 07-00 00-00>"},
        VlCase{Opcode::V_PMULLH, 8, "8-byte object <73-00 00-00 08-00 00-00>"},
        VlCase{Opcode::V_PMULHH, 16, "8-byte object <74-00 D8-A4 10-00 00-00>"},
        VlCase{Opcode::V_PAVGB, 5, "8-byte object <77-00 94-24 05-00 00-00>"},
        VlCase{Opcode::V_PMINUB, 12, "8-byte object <79-00 FF-FF 0C-00 00-00>"},
        VlCase{Opcode::V_PSADBW, 16, "8-byte object <7D-00 00-00 10-00 00-00>"},
        VlCase{Opcode::V_PACKUSHB, 9, "8-byte object <7F-00 D8-A4 09-00 00-00>"},
        VlCase{Opcode::V_PUNPCKLBH, 4, "8-byte object <81-00 94-24 04-00 00-00>"},
        VlCase{Opcode::V_PCMPGTB, 16, "8-byte object <95-00 FF-FF 10-00 00-00>"},
        VlCase{Opcode::V_PAND, 2, "8-byte object <8F-00 00-00 02-00 00-00>"},
        VlCase{Opcode::V_PMADDH, 16, "8-byte object <76-00 94-24 10-00 00-00>"}));

}  // namespace
}  // namespace vuv
