#include "ref/diff.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "common/error.hpp"

namespace vuv {

namespace {

/// First differing byte of two equally-sized memories, or -1. Both read
/// zero from their extents up, so only the longer written prefix can differ.
i64 first_mem_diff(const MainMemory& a, const MainMemory& b) {
  const size_t n = std::max(a.extent(), b.extent());
  const std::span<const u8> pa = a.bytes(0, n);
  const std::span<const u8> pb = b.bytes(0, n);
  if (n == 0 || std::memcmp(pa.data(), pb.data(), n) == 0) return -1;
  const auto [ia, ib] = std::mismatch(pa.begin(), pa.end(), pb.begin());
  return static_cast<i64>(ia - pa.begin());
}

}  // namespace

DiffReport diff_program(const Program& prog, const MainMemory& init_mem,
                        u32 warm_bytes, const MachineConfig& cfg,
                        const InterpOptions& iopts,
                        const CompileOptions& copts) {
  DiffReport rep;
  std::ostringstream err;

  // ---- reference side -------------------------------------------------------
  MainMemory ref_mem = init_mem;
  try {
    rep.ref = interpret(prog, ref_mem, iopts);
  } catch (const InternalError&) {
    throw;
  } catch (const Error& e) {
    rep.ok = false;
    rep.kind = DiffKind::kRefFault;
    rep.error = std::string("interpreter fault: ") + e.what();
    return rep;
  }

  // ---- simulator side -------------------------------------------------------
  MainMemory sim_mem = init_mem;
  ScheduledProgram sp;
  try {
    sp = compile(Program(prog), cfg, copts);
    const ExecImage image = lower_image(sp, sp.cfg);
    Cpu cpu(sp.cfg, sim_mem, image);
    cpu.warm(0, warm_bytes);
    rep.sim = cpu.run();
  } catch (const InternalError&) {
    throw;
  } catch (const Error& e) {
    rep.ok = false;
    rep.kind = DiffKind::kSimFault;
    rep.error = std::string("compile/simulate fault (interpreter ran clean): ") +
                e.what();
    return rep;
  }

  // ---- architectural state --------------------------------------------------
  if (const i64 at = first_mem_diff(ref_mem, sim_mem); at >= 0) {
    err << "memory mismatch at address " << at << ": interpreter byte 0x"
        << std::hex << static_cast<int>(ref_mem.bytes(static_cast<Addr>(at), 1)[0])
        << " vs simulator byte 0x"
        << static_cast<int>(sim_mem.bytes(static_cast<Addr>(at), 1)[0])
        << std::dec << "; ";
  }

  // ---- dynamic-count consistency -------------------------------------------
  if (rep.ref.retired_ops != rep.sim.total_ops())
    err << "dynamic op count: interpreter " << rep.ref.retired_ops
        << " vs simulator " << rep.sim.total_ops() << "; ";
  if (rep.ref.retired_uops != rep.sim.total_uops())
    err << "dynamic uop count: interpreter " << rep.ref.retired_uops
        << " vs simulator " << rep.sim.total_uops() << "; ";
  if (rep.ref.taken_branches != rep.sim.taken_branches)
    err << "taken branches: interpreter " << rep.ref.taken_branches
        << " vs simulator " << rep.sim.taken_branches << "; ";

  // ---- timing invariants ----------------------------------------------------
  // The in-order pipe can never beat its static schedule: every executed
  // block contributes at least its schedule length, plus one fetch bubble
  // per taken control transfer.
  Cycle lower = rep.ref.taken_branches;
  for (size_t b = 0; b < rep.ref.block_counts.size(); ++b)
    lower += rep.ref.block_counts[b] *
             (b < sp.blocks.size() ? sp.blocks[b].length : 0);
  if (rep.sim.cycles < lower)
    err << "cycles " << rep.sim.cycles
        << " below the static-schedule lower bound " << lower << "; ";
  if (rep.sim.stall_cycles > rep.sim.cycles)
    err << "stall cycles " << rep.sim.stall_cycles << " exceed total cycles "
        << rep.sim.cycles << "; ";
  i64 words = 0;
  Cycle region_cycles = 0;
  for (const RegionStats& r : rep.sim.regions) {
    words += r.words;
    region_cycles += r.cycles;
  }
  // At most one VLIW word issues per cycle.
  if (words > rep.sim.cycles)
    err << "issued words " << words << " exceed cycles " << rep.sim.cycles
        << "; ";
  // Region cycle attribution must partition the run.
  if (region_cycles != rep.sim.cycles)
    err << "region cycles " << region_cycles << " do not sum to total "
        << rep.sim.cycles << "; ";

  rep.error = err.str();
  rep.ok = rep.error.empty();
  rep.kind = rep.ok ? DiffKind::kOk : DiffKind::kMismatch;
  return rep;
}

}  // namespace vuv
