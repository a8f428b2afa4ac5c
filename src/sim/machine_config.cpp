#include "sim/machine_config.hpp"

#include <vector>

#include "common/error.hpp"

namespace vuv {

const char* isa_level_name(IsaLevel lvl) {
  switch (lvl) {
    case IsaLevel::kScalar: return "VLIW";
    case IsaLevel::kMusimd: return "+uSIMD";
    case IsaLevel::kVector: return "+Vector";
  }
  return "?";
}

namespace {

i32 int_regs_for(i32 width) { return width == 2 ? 64 : (width == 4 ? 96 : 128); }

i32 l1_ports_for(i32 width) { return width == 2 ? 1 : (width == 4 ? 2 : 3); }

void check_width(i32 width, bool allow8) {
  VUV_CHECK(width == 2 || width == 4 || (allow8 && width == 8),
            "unsupported issue width");
}

}  // namespace

MachineConfig MachineConfig::vliw(i32 width) {
  check_width(width, /*allow8=*/true);
  MachineConfig c;
  c.name = "VLIW-" + std::to_string(width) + "w";
  c.isa = IsaLevel::kScalar;
  c.issue_width = width;
  c.int_regs = int_regs_for(width);
  c.int_units = width;
  c.l1_ports = l1_ports_for(width);
  return c;
}

MachineConfig MachineConfig::musimd(i32 width) {
  check_width(width, /*allow8=*/true);
  MachineConfig c = vliw(width);
  c.name = "uSIMD-" + std::to_string(width) + "w";
  c.isa = IsaLevel::kMusimd;
  c.simd_regs = int_regs_for(width);
  c.simd_units = width;
  return c;
}

MachineConfig MachineConfig::vector1(i32 width) {
  check_width(width, /*allow8=*/false);
  MachineConfig c;
  c.name = "Vector1-" + std::to_string(width) + "w";
  c.isa = IsaLevel::kVector;
  c.issue_width = width;
  c.int_regs = int_regs_for(width);
  c.int_units = width;
  c.vec_regs = width == 2 ? 20 : 32;
  c.acc_regs = width == 2 ? 4 : 6;
  c.vec_units = width == 2 ? 1 : 2;
  c.l1_ports = 1;
  c.l2_ports = 1;
  return c;
}

MachineConfig MachineConfig::vector2(i32 width) {
  MachineConfig c = vector1(width);
  c.name = "Vector2-" + std::to_string(width) + "w";
  c.vec_units = width == 2 ? 2 : 4;
  c.l1_ports = width == 2 ? 1 : 2;
  return c;
}

std::vector<MachineConfig> MachineConfig::all_table2() {
  return {vliw(2),    vliw(4),    vliw(8),    musimd(2),  musimd(4),
          musimd(8),  vector1(2), vector1(4), vector2(2), vector2(4)};
}

MachineConfig MachineConfig::table2_by_name(const std::string& name) {
  for (const MachineConfig& c : all_table2())
    if (name == c.name) return c;
  std::string valid;
  for (const MachineConfig& c : all_table2()) {
    if (!valid.empty()) valid += ' ';
    valid += c.name;
  }
  throw Error("unknown configuration: " + name + " (expected one of: " +
              valid + ")");
}

namespace {

void add(std::string& s, i64 v) {
  s += std::to_string(v);
  s += ',';
}

// The three field groups of both signatures, in compile_signature's order.
void add_core(std::string& s, const MachineConfig& c) {
  add(s, static_cast<i64>(c.isa));
  add(s, c.issue_width);
  add(s, c.int_regs);
  add(s, c.simd_regs);
  add(s, c.vec_regs);
  add(s, c.acc_regs);
  add(s, c.int_units);
  add(s, c.simd_units);
  add(s, c.vec_units);
  add(s, c.branch_units);
  add(s, c.l1_ports);
  add(s, c.l2_ports);
  add(s, c.lanes);
  add(s, c.l2_port_elems);
}

void add_hierarchy(std::string& s, const MemParams& m) {
  add(s, m.l1_size);
  add(s, m.l1_assoc);
  add(s, m.l2_size);
  add(s, m.l2_assoc);
  add(s, m.l2_banks);
  add(s, m.l3_size);
  add(s, m.l3_assoc);
  add(s, m.line_size);
  add(s, m.lat_l1);
  add(s, m.lat_l2);
  add(s, m.lat_l3);
  add(s, m.lat_mem);
}

void add_policies(std::string& s, const MachineConfig& c) {
  add(s, c.mem_disambiguation);
  add(s, c.stride_aware_sched);
  add(s, c.chaining);
}

}  // namespace

std::string compile_signature(const MachineConfig& c) {
  std::string s;
  s.reserve(128);
  add_core(s, c);
  add_hierarchy(s, c.mem);
  add_policies(s, c);
  return s;
}

std::string schedule_signature(const MachineConfig& c) {
  std::string s;
  s.reserve(128);
  add_core(s, c);
  add_policies(s, c);
  return s;
}

}  // namespace vuv
