// Small argument-parsing and output helpers shared by the vuv_* command-
// line tools.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace vuv {
namespace cli {

/// One documented command-line option. `desc` may span several lines
/// (embedded '\n'); continuation lines are indented to the description
/// column by Usage::text().
struct UsageOpt {
  const char* flag;
  const char* desc;
};

/// Declarative --help text shared by every vuv_* tool, rendered by one
/// formatter so all CLIs read alike and docs/CLI.md can be generated (and
/// CI-diffed) from the binaries themselves — see scripts/gen_cli_md.sh.
struct Usage {
  const char* name;     // binary name, e.g. "vuv_sweep"
  const char* summary;  // one line: what the tool does
  /// Optional free paragraph(s) after the summary ("" for none). Printed
  /// verbatim, so pre-wrap to < 80 columns.
  const char* description = "";
  std::vector<UsageOpt> options;
  std::vector<const char*> examples;

  /// Deterministic rendering: synopsis, summary, description, an aligned
  /// options table (with `-h, --help` appended automatically), examples.
  std::string text() const {
    std::string out = "usage: ";
    out += name;
    out += " [options]\n\n";
    out += summary;
    out += "\n";
    if (description[0] != '\0') {
      out += "\n";
      out += description;
      out += "\n";
    }
    std::vector<UsageOpt> opts = options;
    opts.push_back({"-h, --help", "print this help and exit"});
    size_t width = 0;
    for (const UsageOpt& o : opts) width = std::max(width, std::string(o.flag).size());
    out += "\noptions:\n";
    for (const UsageOpt& o : opts) {
      std::string line = "  ";
      line += o.flag;
      line.resize(2 + width + 2, ' ');
      std::stringstream desc(o.desc);
      std::string part;
      bool first = true;
      while (std::getline(desc, part)) {
        if (first) {
          out += line + part + "\n";
          first = false;
        } else {
          out += std::string(2 + width + 2, ' ') + part + "\n";
        }
      }
      if (first) out += line + "\n";  // empty description
    }
    if (!examples.empty()) {
      out += "\nexamples:\n";
      for (const char* e : examples) {
        out += "  ";
        out += e;
        out += "\n";
      }
    }
    return out;
  }
};

inline std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ','))
    if (!item.empty()) out.push_back(item);
  return out;
}

/// Whole-string base-10 parse of `v` into `n`: false on empty input,
/// trailing junk or overflow.
inline bool parse_long(const std::string& v, long& n) {
  errno = 0;
  char* end = nullptr;
  n = std::strtol(v.c_str(), &end, 10);
  return !v.empty() && end == v.c_str() + v.size() && errno != ERANGE;
}

/// Parse a strictly positive integer option value. Rejects non-numeric
/// input, trailing junk, zero and negative values with a clear error
/// instead of the undefined/surprising behavior of a bare atoi/stoi.
inline i32 parse_positive_int(const std::string& flag, const std::string& v) {
  long n = 0;
  if (!parse_long(v, n) || n <= 0 || n > 1'000'000)
    throw Error("invalid value for " + flag + ": '" + v +
                "' (expected a positive integer)");
  return static_cast<i32>(n);
}

/// Most worker threads a tool starts (--jobs, $VUV_JOBS). A pool starts
/// all of its threads at once, so a mistyped count must fail as a usage
/// error rather than ask the OS for that many threads.
inline constexpr i32 kMaxJobs = 1024;

/// Parse a worker-thread count: an integer in 1..kMaxJobs.
inline i32 parse_jobs(const std::string& flag, const std::string& v) {
  long n = 0;
  if (!parse_long(v, n) || n < 1 || n > kMaxJobs)
    throw Error("invalid value for " + flag + ": '" + v + "' (expected 1.." +
                std::to_string(kMaxJobs) + ")");
  return static_cast<i32>(n);
}

/// Parse a non-negative 64-bit integer option value (seed ids, counts).
/// Same contract as parse_positive_int: non-numeric input, trailing junk,
/// overflow and negative values all fail with the usage error instead of
/// the silent-truncation/uncaught-exception behavior of a bare stoll.
inline i64 parse_nonneg_i64(const std::string& flag, const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE || n < 0)
    throw Error("invalid value for " + flag + ": '" + v +
                "' (expected a non-negative integer)");
  return static_cast<i64>(n);
}

/// Parse a strictly positive floating-point option value. Same contract
/// as parse_positive_int: non-numeric input, trailing junk ("2.0x"),
/// overflow, zero, negatives and non-finite values all fail with the
/// usage error — never an uncaught std::invalid_argument out of main.
inline double parse_positive_double(const std::string& flag,
                                    const std::string& v) {
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || end != v.c_str() + v.size() || errno == ERANGE ||
      !(d > 0) || d > 1e12)
    throw Error("invalid value for " + flag + ": '" + v +
                "' (expected a positive number)");
  return d;
}

/// Output format implied by --format/--out: an explicit `format` wins;
/// otherwise the output path's extension decides (.json -> json,
/// .csv -> csv), falling back to `dflt` (stdout default: a table).
inline std::string pick_format(const std::string& format,
                               const std::string& out_path,
                               const std::string& dflt = "table") {
  if (!format.empty()) return format;
  if (out_path.ends_with(".json")) return "json";
  if (out_path.ends_with(".csv")) return "csv";
  return dflt;
}

/// Run `body(ostream&)` against stdout (path empty or "-") or against a
/// freshly opened file, reporting where the output went on the side
/// channel. Throws Error when the file cannot be opened.
template <typename Body>
void write_output(const std::string& path, Body&& body) {
  if (path.empty() || path == "-") {
    body(std::cout);
    return;
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot write " + path);
  body(out);
  std::cerr << "wrote " << path << "\n";
}

}  // namespace cli
}  // namespace vuv
