#include "sim/image.hpp"

#include "common/error.hpp"

namespace vuv {

namespace {

struct SlotLayout {
  u32 off_int, off_simd, off_vfull, off_acc, off_vchain, slot_vl, slot_vs;
  u32 n_slots;

  explicit SlotLayout(const MachineConfig& cfg) {
    // Mirrors the register-file sizing of Cpu::run's CpuState exactly.
    const u32 ni = static_cast<u32>(cfg.int_regs);
    const u32 ns = static_cast<u32>(std::max(cfg.simd_regs, 1));
    const u32 nv = static_cast<u32>(std::max(cfg.vec_regs, 1));
    const u32 na = static_cast<u32>(std::max(cfg.acc_regs, 1));
    off_int = 0;
    off_simd = off_int + ni;
    off_vfull = off_simd + ns;
    off_acc = off_vfull + nv;
    off_vchain = off_acc + na;
    slot_vl = off_vchain + nv;
    slot_vs = slot_vl + 1;
    n_slots = slot_vs + 1;
  }
};

ExecKind kind_of(Opcode o) {
  if (o >= Opcode::M_PADDB && o <= Opcode::M_PSHUFH) return ExecKind::kPacked;
  if (o >= Opcode::V_PADDB && o <= Opcode::V_PSHUFH)
    return ExecKind::kVecPacked;
  switch (o) {
    case Opcode::LDB:
    case Opcode::LDBU:
    case Opcode::LDH:
    case Opcode::LDHU:
    case Opcode::LDW:
    case Opcode::LDD:
    case Opcode::LDQS: return ExecKind::kLoad;
    case Opcode::STB:
    case Opcode::STH:
    case Opcode::STW:
    case Opcode::STD: return ExecKind::kStoreInt;
    case Opcode::STQS: return ExecKind::kStoreSimd;
    case Opcode::BEQ:
    case Opcode::BNE:
    case Opcode::BLT:
    case Opcode::BGE:
    case Opcode::BLTU:
    case Opcode::BGEU: return ExecKind::kBranch;
    case Opcode::JMP: return ExecKind::kJump;
    case Opcode::HALT: return ExecKind::kHalt;
    case Opcode::VLD: return ExecKind::kVld;
    case Opcode::VST: return ExecKind::kVst;
    case Opcode::VSADACC: return ExecKind::kVsadacc;
    case Opcode::VMACH: return ExecKind::kVmach;
    case Opcode::SETVLI:
    case Opcode::SETVL: return ExecKind::kSetVl;
    case Opcode::SETVSI:
    case Opcode::SETVS: return ExecKind::kSetVs;
    default: return ExecKind::kScalarAlu;
  }
}

void set_mem_shape(DecodedOp& d) {
  switch (d.op) {
    case Opcode::LDB: d.mem_bytes = 1; d.mem_sign = true; break;
    case Opcode::LDBU: d.mem_bytes = 1; break;
    case Opcode::LDH: d.mem_bytes = 2; d.mem_sign = true; break;
    case Opcode::LDHU: d.mem_bytes = 2; break;
    case Opcode::LDW: d.mem_bytes = 4; d.mem_sign = true; break;
    case Opcode::LDD:
    case Opcode::LDQS: d.mem_bytes = 8; break;
    case Opcode::STB: d.mem_bytes = 1; break;
    case Opcode::STH: d.mem_bytes = 2; break;
    case Opcode::STW: d.mem_bytes = 4; break;
    case Opcode::STD:
    case Opcode::STQS: d.mem_bytes = 8; break;
    default: break;
  }
}

/// µop-count coefficients: dynamic µops = fixed + per_vl * effective VL
/// (paper §3.1 sub-word accounting; the formulas of the interpretive
/// simulator's uops_of, factored into constants).
void set_uop_shape(DecodedOp& d) {
  const Opcode o = d.op;
  if (o >= Opcode::M_PADDB && o <= Opcode::M_PSHUFH) {
    d.uop_fixed = lanes_of(o);
    return;
  }
  if (o >= Opcode::V_PADDB && o <= Opcode::V_PSHUFH) {
    d.uop_per_vl = lanes_of(o);
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
  d.kind = kind_of(op.op);
  d.op = op.op;
  // Whether a packed op takes the shift/shuffle form is a property of its
  // opcode, hoisted here out of packed_eval. A vector op's form follows
  // from its base opcode, which execution switches on anyway.
  if (d.kind == ExecKind::kVecPacked)
    d.vbase = vector_base_op(op.op);
  else if (d.kind == ExecKind::kPacked)
    d.packed_shift = info.flags.has_imm || op.op == Opcode::M_PSHUFH;
  set_mem_shape(d);
  set_uop_shape(d);
  d.nsrc = info.nsrc;
  for (size_t s = 0; s < d.src.size(); ++s) d.src[s] = op.src[s].id;
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
    if (!r.valid()) continue;
    const u32 id = static_cast<u32>(r.id);
    switch (r.cls) {
      case RegClass::kInt: d.ready[d.n_ready++] = lay.off_int + id; break;
      case RegClass::kSimd: d.ready[d.n_ready++] = lay.off_simd + id; break;
      case RegClass::kVreg:
        d.ready[d.n_ready++] = (info.flags.vector && cfg.chaining)
                                   ? lay.off_vchain + id
                                   : lay.off_vfull + id;
        break;
      case RegClass::kAcc: d.ready[d.n_ready++] = lay.off_acc + id; break;
      default: break;
    }
  }
  if (info.flags.reads_vl) d.ready[d.n_ready++] = lay.slot_vl;
  if (info.flags.reads_vs) d.ready[d.n_ready++] = lay.slot_vs;

  if (op.dst.valid()) {
    const u32 id = static_cast<u32>(op.dst.id);
    switch (op.dst.cls) {
      case RegClass::kInt: d.wb_full = lay.off_int + id; break;
      case RegClass::kSimd: d.wb_full = lay.off_simd + id; break;
      case RegClass::kVreg:
        d.wb_full = lay.off_vfull + id;
        d.wb_chain = lay.off_vchain + id;
        break;
      case RegClass::kAcc: d.wb_full = lay.off_acc + id; break;
      default: break;
    }
  }
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
  im.entry = prog.entry;
  im.n_slots = lay.n_slots;
  im.slot_vl = lay.slot_vl;
  im.slot_vs = lay.slot_vs;
  im.blocks.reserve(prog.blocks.size());
  im.words.reserve(static_cast<size_t>(sp.static_words()));
  im.ops.reserve(static_cast<size_t>(prog.static_ops()));

  for (size_t b = 0; b < prog.blocks.size(); ++b) {
    const BasicBlock& blk = prog.blocks[b];
    const BlockSchedule& bs = sp.blocks[b];
    DecodedBlock db;
    db.word_begin = static_cast<u32>(im.words.size());
    db.fallthrough = blk.fallthrough;
    db.region = blk.region;

    for (const VliwWord& w : bs.words) {
      DecodedWord dw;
      dw.cycle = w.cycle;
      dw.op_begin = static_cast<u32>(im.ops.size());
      i32 fu_need[7] = {0, 0, 0, 0, 0, 0, 0};
      for (i32 oi : w.ops) {
        const DecodedOp d =
            lower_op(blk.ops[static_cast<size_t>(oi)], lay, cfg);
        ++fu_need[d.fu];
        im.ops.push_back(d);
      }
      dw.op_end = static_cast<u32>(im.ops.size());
      im.max_word_ops =
          std::max(im.max_word_ops, static_cast<i32>(dw.op_end - dw.op_begin));
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
