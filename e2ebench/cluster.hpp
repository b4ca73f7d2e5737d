// The system under test, in one process: a FlowQLServer over a by-location
// Coordinator, with one SocketTransport endpoint for the coordinator and one
// for each PartitionServer. With a LayerTrace the coordinator and every
// endpoint are wrapped in the bench-local decorators of tracing.hpp and the
// public metrics registries are attached; without one the server talks to
// the Coordinator and the SocketTransports directly.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/metrics.hpp"
#include "flowdb/partitioned/coordinator.hpp"
#include "flowdb/partitioned/server.hpp"
#include "net/socket_transport.hpp"
#include "serve/server.hpp"
#include "tracing.hpp"
#include "workload.hpp"

namespace e2e {

/// Flow records of every summary the writer side exports, indexed
/// [epoch * sites + site]; the input, generated from the seed before any
/// timing starts.
struct EpochRecords {
  std::size_t sites = 0;
  std::size_t first_epoch = 0;
  std::vector<std::vector<megads::flow::FlowRecord>> records;

  [[nodiscard]] std::size_t epochs() const {
    return sites == 0 ? 0 : records.size() / sites;
  }
  [[nodiscard]] const std::vector<megads::flow::FlowRecord>& at(
      std::size_t epoch, std::size_t site) const {
    return records[(epoch - first_epoch) * sites + site];
  }
};

[[nodiscard]] EpochRecords make_records(std::uint64_t seed,
                                        const Params& params,
                                        std::size_t first_epoch,
                                        std::size_t epochs, std::size_t flows);

/// Cumulative public counters; the bench reports deltas over the timed loop.
struct Counters {
  std::uint64_t planned = 0;
  std::uint64_t shared_folds = 0;
  std::uint64_t read_only_folds = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t remote_shard_queries = 0;
  std::uint64_t fanout_pruned = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  std::uint64_t view_hits = 0;    ///< traced clusters only (registry)
  std::uint64_t view_misses = 0;  ///< traced clusters only (registry)
  std::uint64_t server_bytes_out = 0;
};

class Cluster {
 public:
  Cluster(const Params& params, LayerTrace* trace);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Build each history summary from its records and route it through the
  /// Coordinator; returns once every shard has indexed them.
  void load(const EpochRecords& history);
  /// Run `statements` once in-process against the Coordinator: fills the
  /// shard memos and view caches the way a running dashboard would.
  void warm_up(const std::vector<std::string>& statements);

  [[nodiscard]] std::uint16_t port() const noexcept { return server_->port(); }
  [[nodiscard]] megads::flowdb::dist::Coordinator& coordinator() {
    return *coordinator_;
  }
  /// The transport the Coordinator was given (decorated when traced).
  [[nodiscard]] megads::net::Transport& coordinator_transport();
  [[nodiscard]] megads::serve::FlowQLServer& server() { return *server_; }
  [[nodiscard]] std::size_t shards() const noexcept { return servers_.size(); }
  [[nodiscard]] const megads::flowdb::dist::PartitionServer& shard(
      std::size_t i) const {
    return *servers_[i];
  }
  [[nodiscard]] megads::metrics::MetricsRegistry& registry() {
    return registry_;
  }
  [[nodiscard]] TracedSource* traced_source() { return traced_source_.get(); }

  [[nodiscard]] Counters counters() const;
  /// Stray or malformed traffic anywhere in the cluster (must stay 0).
  [[nodiscard]] std::uint64_t coordinator_dropped() const;
  [[nodiscard]] std::uint64_t shard_dropped() const;
  [[nodiscard]] std::uint64_t dropped_frames() const;

 private:
  megads::metrics::MetricsRegistry registry_;
  /// endpoints_[0] is the coordinator's; endpoints_[1 + i] serves shard i.
  std::vector<std::unique_ptr<megads::net::SocketTransport>> endpoints_;
  std::vector<std::unique_ptr<TracedTransport>> traced_endpoints_;
  std::vector<std::unique_ptr<megads::flowdb::dist::PartitionServer>> servers_;
  std::unique_ptr<megads::flowdb::dist::Coordinator> coordinator_;
  std::unique_ptr<TracedSource> traced_source_;
  std::unique_ptr<megads::serve::FlowQLServer> server_;
};

}  // namespace e2e
