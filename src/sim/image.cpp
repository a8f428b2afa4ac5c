#include "sim/image.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace vuv {

SlotLayout::SlotLayout(const MachineConfig& cfg) {
  // Mirrors the register-file sizing of Cpu::run's CpuState exactly.
  const u32 ni = static_cast<u32>(cfg.int_regs);
  const u32 ns = static_cast<u32>(std::max(cfg.simd_regs, 1));
  const u32 nv = static_cast<u32>(std::max(cfg.vec_regs, 1));
  const u32 na = static_cast<u32>(std::max(cfg.acc_regs, 1));
  // DecodedOp stores slots as Slot and register indices as i16.
  if (std::max({ni, ns, nv, na}) >
      static_cast<u32>(std::numeric_limits<i16>::max()))
    throw InternalError("register file too large for the execution image");
  off_int = 0;
  off_simd = off_int + ni;
  off_vfull = off_simd + ns;
  off_acc = off_vfull + nv;
  off_vchain = off_acc + na;
  slot_vl = off_vchain + nv;
  slot_vs = slot_vl + 1;
  n_slots = slot_vs + 1;
  if (n_slots >= kNoSlot)
    throw InternalError("scoreboard needs " + std::to_string(n_slots) +
                        " slots; the execution image holds fewer than " +
                        std::to_string(kNoSlot));
}

Slot SlotLayout::of(const Reg& r) const {
  // The constructor bounds every slot below kNoSlot.
  const u32 id = static_cast<u32>(r.id);
  switch (r.cls) {
    case RegClass::kInt: return static_cast<Slot>(off_int + id);
    case RegClass::kSimd: return static_cast<Slot>(off_simd + id);
    case RegClass::kVreg: return static_cast<Slot>(off_vfull + id);
    case RegClass::kAcc: return static_cast<Slot>(off_acc + id);
    default: return kNoSlot;
  }
}

namespace {

/// µop-count coefficients: dynamic µops = fixed + per_vl * effective VL
/// (paper §3.1 sub-word accounting; the formulas of the interpretive
/// simulator's uops_of, factored into constants).
void set_uop_shape(DecodedOp& d) {
  const Opcode o = d.op;
  if (o >= Opcode::M_PADDB && o <= Opcode::M_PSHUFH) {
    d.uop_fixed = static_cast<u8>(lanes_of(o));
    return;
  }
  if (o >= Opcode::V_PADDB && o <= Opcode::V_PSHUFH) {
    d.uop_per_vl = static_cast<u8>(lanes_of(o));
    return;
  }
  switch (o) {
    case Opcode::VLD:
    case Opcode::VST: d.uop_per_vl = 1; break;
    case Opcode::VSADACC: d.uop_per_vl = 8; break;
    case Opcode::VMACH: d.uop_per_vl = 4; break;
    default: d.uop_fixed = 1; break;
  }
}

i32 fu_count(const MachineConfig& cfg, FuClass f) {
  switch (f) {
    case FuClass::kInt: return cfg.int_units;
    case FuClass::kMem: return cfg.l1_ports;
    case FuClass::kBranch: return cfg.branch_units;
    case FuClass::kSimd: return cfg.simd_units;
    case FuClass::kVec: return cfg.vec_units;
    case FuClass::kVecMem: return cfg.l2_ports;
    case FuClass::kNone: return 0;
  }
  return 0;
}

DecodedOp lower_op(const Operation& op, const SlotLayout& lay,
                   const MachineConfig& cfg) {
  const OpInfo& info = op.info();
  DecodedOp d;
  d.op = op.op;
  set_uop_shape(d);
  for (size_t s = 0; s < d.src.size(); ++s)
    d.src[s] = static_cast<i16>(op.src[s].id);
  d.dst = op.dst;
  d.imm = op.imm;
  d.target_block = op.target_block;

  d.fu = static_cast<u8>(info.fu);
  d.latency = static_cast<u8>(info.latency);
  d.is_vector = info.flags.vector;
  d.sets_vl = info.flags.writes_special &&
              (op.op == Opcode::SETVLI || op.op == Opcode::SETVL);
  d.sets_vs = info.flags.writes_special &&
              (op.op == Opcode::SETVSI || op.op == Opcode::SETVS);

  // Read-dependency scoreboard slots, chaining resolved statically: a
  // vector consumer of a vector register waits only for the chain point.
  for (u8 s = 0; s < info.nsrc; ++s) {
    const Reg r = op.src[s];
    const Slot slot = lay.of(r);
    if (slot == kNoSlot) continue;
    d.ready[d.n_ready++] =
        (r.cls == RegClass::kVreg && info.flags.vector && cfg.chaining)
            ? static_cast<Slot>(lay.off_vchain + static_cast<u32>(r.id))
            : slot;
  }
  if (info.flags.reads_vl) d.ready[d.n_ready++] = static_cast<Slot>(lay.slot_vl);
  if (info.flags.reads_vs) d.ready[d.n_ready++] = static_cast<Slot>(lay.slot_vs);

  d.wb_full = lay.of(op.dst);
  if (op.dst.cls == RegClass::kVreg)
    d.wb_chain = static_cast<Slot>(lay.off_vchain + static_cast<u32>(op.dst.id));
  return d;
}

}  // namespace

ExecImage lower_image(const ScheduledProgram& sp, const MachineConfig& cfg) {
  const Program& prog = sp.prog;
  VUV_CHECK(prog.allocated, "program must be register-allocated");
  VUV_CHECK(sp.blocks.size() == prog.blocks.size(),
            "schedule does not cover the program");

  const SlotLayout lay(cfg);
  ExecImage im;
  im.region_names = prog.region_names;
  im.signature = schedule_signature(cfg);
  im.entry = prog.entry;
  im.n_slots = lay.n_slots;
  im.slot_vl = static_cast<Slot>(lay.slot_vl);
  im.slot_vs = static_cast<Slot>(lay.slot_vs);
  im.blocks.reserve(prog.blocks.size());
  im.words.reserve(static_cast<size_t>(sp.static_words()));
  im.ops.reserve(static_cast<size_t>(prog.static_ops()));

  // The skip rule's state, per slot: the block whose op last wrote it and
  // the static cycle from which that write is ready in every execution of
  // the block (kDynamic when a memory or VL-dependent op wrote it). Within
  // one execution of a block, lockstep issue keeps every word at least its
  // static distance after each earlier word, so a slot whose write is
  // statically ready by a word's cycle is ready by that word's base issue
  // time and can never bind it (DESIGN.md, "Replay skips issue checks that
  // cannot bind").
  //
  // The in-place guard's state, per slot: the word that last read it and
  // that word's one reader (kMany when several of its ops read it). Replay
  // writes each result in place, so a word in which one op reads a slot
  // another op writes has no defined meaning and is rejected (DESIGN.md,
  // "Replay writes results in place").
  constexpr Cycle kDynamic = std::numeric_limits<Cycle>::max();
  constexpr u32 kNone = std::numeric_limits<u32>::max();
  constexpr u32 kMany = kNone - 1;
  struct LastWrite {
    u32 block = kNone;
    Cycle ready = kDynamic;
    u32 read_word = kNone;
    u32 reader = kNone;
  };
  std::vector<LastWrite> last(lay.n_slots);

  for (size_t b = 0; b < prog.blocks.size(); ++b) {
    const BasicBlock& blk = prog.blocks[b];
    const BlockSchedule& bs = sp.blocks[b];
    const u32 bi = static_cast<u32>(b);
    DecodedBlock db;
    db.word_begin = static_cast<u32>(im.words.size());
    db.fallthrough = blk.fallthrough;
    db.region = blk.region;

    for (const VliwWord& w : bs.words) {
      const u32 wi = static_cast<u32>(im.words.size());
      DecodedWord dw;
      dw.cycle = w.cycle;
      dw.op_begin = static_cast<u32>(im.ops.size());
      i32 fu_need[7] = {0, 0, 0, 0, 0, 0, 0};
      for (i32 oi : w.ops) {
        const u32 op_index = static_cast<u32>(im.ops.size());
        DecodedOp d = lower_op(blk.ops[static_cast<size_t>(oi)], lay, cfg);
        // Stable partition: the slots that can bind first, then the rest.
        std::array<Slot, 5> skipped;
        u8 n_skipped = 0;
        d.n_check = 0;
        for (u8 s = 0; s < d.n_ready; ++s) {
          LastWrite& lw = last[d.ready[s]];
          if (lw.read_word != wi) {
            lw.read_word = wi;
            lw.reader = op_index;
          } else if (lw.reader != op_index) {
            lw.reader = kMany;
          }
          if (lw.block == bi && lw.ready <= w.cycle)
            skipped[n_skipped++] = d.ready[s];
          else
            d.ready[d.n_check++] = d.ready[s];
        }
        std::copy_n(skipped.begin(), n_skipped, d.ready.begin() + d.n_check);
        ++fu_need[d.fu];
        im.ops.push_back(d);
      }
      // The word's own writes land after all of its reads; `write` rejects
      // a slot that another op of the word reads.
      for (size_t k = 0; k < w.ops.size(); ++k) {
        const OpInfo& info = blk.ops[static_cast<size_t>(w.ops[k])].info();
        const u32 op_index = dw.op_begin + static_cast<u32>(k);
        const DecodedOp& d = im.ops[op_index];
        auto write = [&](Slot slot, Cycle ready) {
          LastWrite& lw = last[slot];
          if (lw.read_word == wi && lw.reader != op_index)
            throw InternalError(
                "block " + std::to_string(b) + ", cycle " +
                std::to_string(w.cycle) +
                ": an op writes what another op of its word reads");
          lw.block = bi;
          lw.ready = ready;
        };
        const bool dynamic = info.flags.mem_load || info.flags.mem_store ||
                             info.flags.vector;
        const Cycle ready = dynamic ? kDynamic : w.cycle + d.latency;
        if (d.wb_full != kNoSlot) write(d.wb_full, ready);
        if (d.wb_chain != kNoSlot) write(d.wb_chain, ready);
        if (d.sets_vl) write(lay.slot_vl, w.cycle + 1);
        if (d.sets_vs) write(lay.slot_vs, w.cycle + 1);
      }
      dw.op_end = static_cast<u32>(im.ops.size());
      for (int f = 1; f < 7; ++f)
        if (fu_need[f] > 0) {
          VUV_CHECK(fu_need[f] <= fu_count(cfg, static_cast<FuClass>(f)),
                    "VLIW word over-subscribes a functional-unit class");
          dw.fu_need[dw.n_fu++] = {static_cast<u8>(f),
                                   static_cast<u8>(fu_need[f])};
        }
      im.words.push_back(dw);
    }
    db.word_end = static_cast<u32>(im.words.size());
    im.blocks.push_back(db);
  }
  return im;
}

}  // namespace vuv
