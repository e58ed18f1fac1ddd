// Batch-file I/O and flag parsing shared by the serving tools.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "service/query.hpp"
#include "service/workloads.hpp"
#include "util/distance.hpp"

namespace msrp::tools {

/// Strict numeric flag parsing for the CLIs: the whole token must be a
/// number, and a junk value is a one-line usage error (exit 2), never an
/// uncaught std::stoul exception aborting the process.
inline std::uint64_t cli_u64(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const std::uint64_t parsed = std::stoull(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (...) {
  }
  std::fprintf(stderr, "error: %s: invalid number \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

/// Hex flavour for oracle digests: accepts "9f3a..." or "0x9f3a..." (the
/// tools print digests as %016llx). Same strict-parse exit(2) contract.
inline std::uint64_t cli_hex_u64(const std::string& value, const char* flag) {
  std::string v = value;
  if (v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) v = v.substr(2);
  if (!v.empty() && v.size() <= 16) {
    try {
      std::size_t pos = 0;
      const std::uint64_t parsed = std::stoull(v, &pos, 16);
      if (pos == v.size()) return parsed;
    } catch (...) {
    }
  }
  std::fprintf(stderr, "error: %s: invalid hex digest \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

inline double cli_double(const std::string& value, const char* flag) {
  try {
    std::size_t pos = 0;
    const double parsed = std::stod(value, &pos);
    if (pos == value.size()) return parsed;
  } catch (...) {
  }
  std::fprintf(stderr, "error: %s: invalid number \"%s\"\n", flag, value.c_str());
  std::exit(2);
}

// ----- batch files ---------------------------------------------------------
// msrp_serve answers these files locally, msrp_client ships them over the
// wire, and CI byte-compares the two outputs — so each workload's line
// format lives here once, as a TextFormat specialization, and the file
// reader/writer pair is shared. Lines are one query each; '#' starts a
// comment line. "inf" prints for kInfDist.

inline void print_dist(std::ostream& f, Dist d) {
  if (d == kInfDist) {
    f << "inf";
  } else {
    f << d;
  }
}

template <class W>
struct TextFormat;

/// "s t e" in, "s t e answer" out.
template <>
struct TextFormat<service::PointWorkload> {
  static std::string parse(std::istringstream& ls, service::Query& q) {
    std::uint64_t s = 0, t = 0, e = 0;
    if (!(ls >> s >> t >> e)) return "expected \"s t e\"";
    q = {static_cast<Vertex>(s), static_cast<Vertex>(t), static_cast<EdgeId>(e)};
    return {};
  }
  static void print(std::ostream& f, const service::Query& q, Dist answer) {
    f << q.s << ' ' << q.t << ' ' << q.e << ' ';
    print_dist(f, answer);
  }
};

/// "s t k" in; out "s t k base entry...", entries as
/// "edge:position:replacement" in result order (base "inf" when t is
/// unreachable).
template <>
struct TextFormat<service::VitalityWorkload> {
  static std::string parse(std::istringstream& ls, service::VitalityQuery& q) {
    std::uint64_t s = 0, t = 0, k = 0;
    if (!(ls >> s >> t >> k)) return "expected \"s t k\"";
    q = {static_cast<Vertex>(s), static_cast<Vertex>(t), static_cast<std::uint32_t>(k)};
    return {};
  }
  static void print(std::ostream& f, const service::VitalityQuery& q,
                    const service::VitalityResult& r) {
    f << q.s << ' ' << q.t << ' ' << q.k << ' ';
    print_dist(f, r.base);
    for (const service::VitalityEntry& e : r.edges) {
      f << ' ' << e.edge << ':' << e.position << ':';
      print_dist(f, e.replacement);
    }
  }
};

/// "s t" in; out "s t base charge...", charges as "edge:price" in path
/// order ("inf" = bridge monopoly).
template <>
struct TextFormat<service::VickreyWorkload> {
  static std::string parse(std::istringstream& ls, service::VickreyQuery& q) {
    std::uint64_t s = 0, t = 0;
    if (!(ls >> s >> t)) return "expected \"s t\"";
    q = {static_cast<Vertex>(s), static_cast<Vertex>(t)};
    return {};
  }
  static void print(std::ostream& f, const service::VickreyQuery& q,
                    const service::VickreyResult& r) {
    f << q.s << ' ' << q.t << ' ';
    print_dist(f, r.base);
    for (const service::VickreyCharge& c : r.prices) {
      f << ' ' << c.edge << ':';
      print_dist(f, c.price);
    }
  }
};

/// "s t [e...]" in — zero to service::kMaxKFailEdges failed edge ids after
/// the endpoints; out "s t F answer", F comma-joined ("-" when empty).
template <>
struct TextFormat<service::KFailWorkload> {
  static std::string parse(std::istringstream& ls, service::KFailQuery& q) {
    std::uint64_t s = 0, t = 0;
    if (!(ls >> s >> t)) return "expected \"s t [e...]\"";
    q = {static_cast<Vertex>(s), static_cast<Vertex>(t), {}};
    std::uint64_t e = 0;
    while (ls >> e) q.fails.push_back(static_cast<EdgeId>(e));
    if (q.fails.size() > service::kMaxKFailEdges) {
      return "at most " + std::to_string(service::kMaxKFailEdges) +
             " failed edges per query";
    }
    return {};
  }
  static void print(std::ostream& f, const service::KFailQuery& q, Dist answer) {
    f << q.s << ' ' << q.t << ' ';
    if (q.fails.empty()) {
      f << '-';
    } else {
      for (std::size_t j = 0; j < q.fails.size(); ++j) {
        if (j != 0) f << ',';
        f << q.fails[j];
      }
    }
    f << ' ';
    print_dist(f, answer);
  }
};

/// Parses a batch file of workload W. Prints a file:line diagnostic and
/// exits on malformed input (CLI contract).
template <class W>
std::vector<typename W::Request> read_batch_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot open batch file %s\n", path.c_str());
    std::exit(1);
  }
  std::vector<typename W::Request> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(f, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    typename W::Request q{};
    const std::string error = TextFormat<W>::parse(ls, q);
    if (!error.empty()) {
      std::fprintf(stderr, "error: %s:%zu: %s\n", path.c_str(), lineno, error.c_str());
      std::exit(1);
    }
    out.push_back(std::move(q));
  }
  return out;
}

/// Writes one answer line per query. Returns false (after printing the
/// error) when the file cannot be opened; answers must be batch-sized.
template <class W>
bool write_answer_file(const std::string& path, std::span<const typename W::Request> batch,
                       std::span<const typename W::Answer> answers) {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    TextFormat<W>::print(f, batch[i], answers[i]);
    f << '\n';
  }
  return true;
}

}  // namespace msrp::tools
