// Rendering of stall-attribution results: resolve a StallProfile's flat op
// indices back to static program locations (block / word-in-block / slot /
// opcode / region) and write "top stalling ops" reports, as human-readable
// text or as JSON (schema documented in README, "Observability").
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/stall.hpp"
#include "sim/cpu.hpp"
#include "sim/image.hpp"

namespace vuv {
namespace obs {

/// One static operation with nonzero attributed stall, located in the
/// program: `block` is the block id, `word` the word's index within the
/// block, `slot` the op's position within the word.
struct ProfileRow {
  u32 op_index = 0;
  i32 block = 0;
  i32 word = 0;
  i32 slot = 0;
  const char* opcode = "";
  std::string region;
  StallProfile::OpStall stalls;
};

/// Resolve every op with nonzero stall into a ProfileRow, sorted by total
/// attributed stall descending (ties: op index ascending, so output is
/// deterministic).
std::vector<ProfileRow> profile_rows(const StallProfile& profile,
                                     const ExecImage& im);

/// Identity of the simulated cell, echoed into the report header.
struct ProfileMeta {
  std::string app;
  std::string config;
  std::string memory;  // "realistic" / "perfect"
};

/// Human-readable report: totals, per-region breakdown, top `top_n` ops.
void write_profile_text(std::ostream& os, const ProfileMeta& meta,
                        const SimResult& res,
                        const std::vector<ProfileRow>& rows, size_t top_n);

/// The same report as a single JSON object.
void write_profile_json(std::ostream& os, const ProfileMeta& meta,
                        const SimResult& res,
                        const std::vector<ProfileRow>& rows, size_t top_n);

}  // namespace obs
}  // namespace vuv
