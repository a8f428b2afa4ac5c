// Writing your own kernel against the public API: alpha blending of two
// images (out = (a*alpha + b*(256-alpha)) >> 8) in both µSIMD and
// Vector-µSIMD styles, verified against a host reference.
#include <iostream>

#include "common/table.hpp"
#include "ir/builder.hpp"
#include "mem/mainmem.hpp"
#include "sim/cpu.hpp"

using namespace vuv;

namespace {

std::vector<u8> reference_blend(const std::vector<u8>& a, const std::vector<u8>& b,
                                int alpha) {
  std::vector<u8> out(a.size());
  for (size_t i = 0; i < a.size(); ++i)
    out[i] = static_cast<u8>((a[i] * alpha + b[i] * (256 - alpha)) >> 8);
  return out;
}

}  // namespace

int main() {
  const int kN = 4096, kAlpha = 96;
  Workspace ws;
  Buffer ba = ws.alloc(kN), bb = ws.alloc(kN), bo = ws.alloc(kN);
  std::vector<u8> ia(kN), ib(kN);
  for (int i = 0; i < kN; ++i) {
    ia[static_cast<size_t>(i)] = static_cast<u8>(i % 251);
    ib[static_cast<size_t>(i)] = static_cast<u8>((i * 13) % 239);
  }
  ws.write_u8(ba, ia);
  ws.write_u8(bb, ib);

  // Vector variant: unpack to 16-bit lanes, multiply, add, shift, repack.
  Buffer calpha = ws.alloc(128), cnalpha = ws.alloc(128), czero = ws.alloc(128);
  for (int e = 0; e < 16; ++e) {
    u64 wa = 0, wn = 0;
    for (int l = 0; l < 4; ++l) {
      wa |= static_cast<u64>(kAlpha) << (16 * l);
      wn |= static_cast<u64>(256 - kAlpha) << (16 * l);
    }
    ws.mem().store(calpha.addr + 8 * e, 8, wa);
    ws.mem().store(cnalpha.addr + 8 * e, 8, wn);
    ws.mem().store(czero.addr + 8 * e, 8, 0);
  }

  ProgramBuilder b;
  b.setvl(16);
  b.setvs(8);
  Reg pa = b.movi(ba.addr), pb = b.movi(bb.addr), po = b.movi(bo.addr);
  Reg va = b.vld(b.movi(calpha.addr), 0, calpha.group);
  Reg vn = b.vld(b.movi(cnalpha.addr), 0, cnalpha.group);
  Reg vz = b.vld(b.movi(czero.addr), 0, czero.group);
  b.for_range(0, kN / 128, 1, [&](Reg i) {
    Reg off = b.slli(i, 7);
    Reg wa = b.vld(b.add(pa, off), 0, ba.group);
    Reg wb = b.vld(b.add(pb, off), 0, bb.group);
    std::array<Reg, 2> halves;
    for (int h = 0; h < 2; ++h) {
      const Opcode unp = h == 0 ? Opcode::V_PUNPCKLBH : Opcode::V_PUNPCKHBH;
      Reg a16 = b.v2(unp, wa, vz);
      Reg b16 = b.v2(unp, wb, vz);
      Reg sum = b.v2(Opcode::V_PADDH, b.v2(Opcode::V_PMULLH, a16, va),
                     b.v2(Opcode::V_PMULLH, b16, vn));
      halves[static_cast<size_t>(h)] = b.vi(Opcode::V_PSRLH, sum, 8);
    }
    b.vst(b.v2(Opcode::V_PACKUSHB, halves[0], halves[1]), b.add(po, off), 0, bo.group);
  });

  const MachineConfig cfg = MachineConfig::vector1(2);
  SimResult r = run_program(b.take(), cfg, ws);

  const auto want = reference_blend(ia, ib, kAlpha);
  const auto got = ws.read_u8(bo, kN);
  if (got != want) {
    std::cerr << "blend mismatch\n";
    return 1;
  }
  std::cout << "alpha blend of " << kN << " pixels on " << cfg.name << ": "
            << r.cycles << " cycles, " << r.total_ops() << " ops, "
            << r.total_uops() << " micro-ops — verified against host reference\n"
            << "(" << TextTable::num(static_cast<double>(r.total_uops()) /
                                     static_cast<double>(r.cycles))
            << " micro-ops per cycle)\n";
  return 0;
}
