// The generator process of bench_e2e. It is forked before the system
// process starts a single thread, and it talks to the system's FlowQLServer
// only over TCP. Its commands arrive on a pipe, one per line:
//
//   go <port>    run the timed closed loop against the server; reply
//                "loop_done" plus the pass's client-side figures
//   full <port>  run the full-history statements through the stack (once,
//                after the last pass); reply "full_done". Meanwhile start
//                rebuilding the single-node reference FlowDB from the seed.
//   check        compare every kept answer byte for byte with run_flowql
//                on the reference, reply "checked" plus the verdict, and
//                exit
//
// Answers kept for the check: every answer to a dashboard panel (the
// dashboard and ingest_mixed readers), a seeded sample of ad-hoc answers,
// and every full-history answer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "workload.hpp"

namespace e2e {

/// The timed window is cut into this many equal parts; the reported query
/// rate, p50 and p99 are each the median of the parts' figures, so a short
/// stall of the host, which hits one part, moves them little.
inline constexpr std::size_t kWindows = 5;

struct GeneratorSpec {
  Workload workload = Workload::kDashboard;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  Params params;
};

/// Runs the generator's command loop; returns the process exit code.
int run_generator(const GeneratorSpec& spec, int command_fd, int reply_fd);

/// A reply line parsed into "key=value" fields (the first word is the tag).
struct Reply {
  std::string tag;
  std::map<std::string, double> fields;

  [[nodiscard]] double get(const std::string& key) const;
};

[[nodiscard]] Reply parse_reply(const std::string& line);

/// Blocking line I/O on a pipe.
void write_line(int fd, const std::string& line);
[[nodiscard]] bool read_line(int fd, std::string& line);

}  // namespace e2e
