// Workload definitions of bench_e2e: everything both processes derive from
// the seed. The system process builds the history and the writer's epochs
// from it; the generator process derives the same statements and, after its
// timed loop, rebuilds the same summaries into a single-node reference
// FlowDB. Every function here is a pure function of its arguments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "flow/flowkey.hpp"
#include "flowtree/flowtree.hpp"

namespace e2e {

enum class Workload { kDashboard, kAdhoc, kIngestMixed };

/// Parses "dashboard" / "adhoc" / "ingest_mixed"; throws on anything else.
[[nodiscard]] Workload parse_workload(const std::string& name);
[[nodiscard]] const char* workload_name(Workload workload);

/// Topology and sizes. One history serves every workload; the workloads
/// differ in the statements they issue and in when the writer runs.
struct Params {
  std::size_t sites = 8;
  std::size_t shards = 4;
  std::size_t history_epochs = 192;
  std::size_t flows_per_summary = 100;
  /// Client connections of the generator process (closed loops).
  std::size_t connections = 4;
  /// Writer: epochs exported after the history, flows per router summary,
  /// and the export period. On ingest_mixed the writer overlaps the reader
  /// loop at a fixed period, so its epoch count follows the run length; on
  /// the other workloads the same epochs are exported after the reader
  /// loop, on an otherwise idle system.
  std::size_t write_epochs = 250;
  std::size_t write_flows = 50;
  double write_period_ms = 80.0;
  /// FlowQLServer pool workers.
  std::size_t server_workers = 4;
};

[[nodiscard]] Params params_for(Workload workload, double seconds);

[[nodiscard]] std::string site_name(std::size_t site);
/// Epochs are one minute each, back to back from time 0.
[[nodiscard]] megads::TimeInterval epoch_interval(std::size_t epoch);
/// The flow records router `site` exports for `epoch`.
[[nodiscard]] std::vector<megads::flow::FlowRecord> epoch_records(
    std::uint64_t seed, std::size_t site, std::size_t epoch, std::size_t flows);
/// Builds one summary from records (weight = bytes), at the default
/// FlowtreeConfig like every summary and fold of the benchmark.
[[nodiscard]] megads::flowtree::Flowtree build_tree(
    const std::vector<megads::flow::FlowRecord>& records);

/// A FROM clause covering epochs [first, last).
[[nodiscard]] std::string epoch_range(std::size_t first, std::size_t last);

/// The dashboard panels: a small fixed set over recent history windows.
[[nodiscard]] std::vector<std::string> dashboard_panels(const Params& params);

/// The statement stream of one ad-hoc connection: seeded window/operator/
/// location mixes drawn from a space far larger than a run samples.
class AdhocStream {
 public:
  AdhocStream(std::uint64_t seed, std::size_t connection, const Params& params);
  [[nodiscard]] std::string next();

 private:
  std::uint64_t state_;
  Params params_;
};

/// One statement per location over the whole history, written epochs
/// included: every summary enters exactly one answer, so they catch lost or
/// duplicated adds. (Per location, because a fold across every location of
/// the full history would make the check cost more than the timed loop.)
[[nodiscard]] std::vector<std::string> full_history_statements(
    const Params& params);

/// splitmix64 step: the benchmark's own deterministic mixing.
[[nodiscard]] std::uint64_t mix(std::uint64_t x);

}  // namespace e2e
