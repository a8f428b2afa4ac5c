#include "obs/profile_report.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>

#include "isa/opcode.hpp"

namespace vuv {
namespace obs {

std::vector<ProfileRow> profile_rows(const StallProfile& profile,
                                     const ExecImage& im) {
  std::vector<ProfileRow> rows;
  for (size_t bi = 0; bi < im.blocks.size(); ++bi) {
    const DecodedBlock& blk = im.blocks[bi];
    for (u32 wi = blk.word_begin; wi != blk.word_end; ++wi) {
      const DecodedWord& w = im.words[wi];
      for (u32 oi = w.op_begin; oi != w.op_end; ++oi) {
        if (oi >= profile.by_op.size()) continue;
        const StallProfile::OpStall& s = profile.by_op[oi];
        if (s.total() == 0) continue;
        ProfileRow row;
        row.op_index = oi;
        row.block = static_cast<i32>(bi);
        row.word = static_cast<i32>(wi - blk.word_begin);
        row.slot = static_cast<i32>(oi - w.op_begin);
        row.opcode = op_name(im.ops[oi].op);
        if (blk.region < im.region_names.size())
          row.region = im.region_names[blk.region];
        row.stalls = s;
        rows.push_back(std::move(row));
      }
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const ProfileRow& a, const ProfileRow& b) {
              if (a.stalls.total() != b.stalls.total())
                return a.stalls.total() > b.stalls.total();
              return a.op_index < b.op_index;
            });
  return rows;
}

void write_profile_text(std::ostream& os, const ProfileMeta& meta,
                        const SimResult& res,
                        const std::vector<ProfileRow>& rows, size_t top_n) {
  os << "stall profile: " << meta.app << " / " << meta.config << " / "
     << meta.memory << "\n";
  os << "  cycles " << res.cycles << ", stall " << res.stall_cycles << " (raw "
     << res.stalls.raw << ", fu_conflict " << res.stalls.fu_conflict
     << ", mem_latency " << res.stalls.mem_latency << "), branch bubbles "
     << res.branch_bubbles << "\n";
  os << "regions:\n";
  for (const RegionStats& r : res.regions) {
    if (r.cycles == 0 && r.stalls.total() == 0) continue;
    os << "  " << std::setw(16) << std::left << r.name << std::right
       << " cycles " << std::setw(10) << r.cycles << "  stall " << std::setw(9)
       << r.stalls.total() << "  (raw " << r.stalls.raw << ", fu "
       << r.stalls.fu_conflict << ", mem " << r.stalls.mem_latency << ")\n";
  }
  os << "top stalling ops:\n";
  if (rows.empty()) os << "  (none)\n";
  for (size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const ProfileRow& r = rows[i];
    os << "  " << std::setw(9) << r.stalls.total() << "  " << std::setw(10)
       << std::left << r.opcode << std::right << " block " << std::setw(3)
       << r.block << " word " << std::setw(3) << r.word << " slot " << r.slot
       << "  [" << r.region << "]  (raw " << r.stalls.raw << ", fu "
       << r.stalls.fu_conflict << ", mem " << r.stalls.mem_latency
       << ", events " << r.stalls.events << ")\n";
  }
}

void write_profile_json(std::ostream& os, const ProfileMeta& meta,
                        const SimResult& res,
                        const std::vector<ProfileRow>& rows, size_t top_n) {
  os << "{\n";
  os << "  \"app\": \"" << meta.app << "\",\n";
  os << "  \"config\": \"" << meta.config << "\",\n";
  os << "  \"memory\": \"" << meta.memory << "\",\n";
  os << "  \"cycles\": " << res.cycles << ",\n";
  os << "  \"stall_cycles\": " << res.stall_cycles << ",\n";
  os << "  \"stalls\": {\"raw\": " << res.stalls.raw
     << ", \"fu_conflict\": " << res.stalls.fu_conflict
     << ", \"mem_latency\": " << res.stalls.mem_latency << "},\n";
  os << "  \"branch_bubbles\": " << res.branch_bubbles << ",\n";
  os << "  \"regions\": [";
  bool first = true;
  for (const RegionStats& r : res.regions) {
    os << (first ? "" : ",") << "\n    {\"name\": \"" << r.name
       << "\", \"cycles\": " << r.cycles << ", \"stalls\": {\"raw\": "
       << r.stalls.raw << ", \"fu_conflict\": " << r.stalls.fu_conflict
       << ", \"mem_latency\": " << r.stalls.mem_latency << "}}";
    first = false;
  }
  os << "\n  ],\n";
  os << "  \"top_ops\": [";
  first = true;
  for (size_t i = 0; i < rows.size() && i < top_n; ++i) {
    const ProfileRow& r = rows[i];
    os << (first ? "" : ",") << "\n    {\"op\": \"" << r.opcode
       << "\", \"block\": " << r.block << ", \"word\": " << r.word
       << ", \"slot\": " << r.slot << ", \"region\": \"" << r.region
       << "\", \"raw\": " << r.stalls.raw
       << ", \"fu_conflict\": " << r.stalls.fu_conflict
       << ", \"mem_latency\": " << r.stalls.mem_latency
       << ", \"events\": " << r.stalls.events << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace obs
}  // namespace vuv
