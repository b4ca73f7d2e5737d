#include "cluster.hpp"

#include "flowdb/executor.hpp"

namespace e2e {

using megads::NodeId;
using megads::flowdb::dist::Coordinator;
using megads::flowdb::dist::PartitionServer;
using megads::net::SocketTransport;

EpochRecords make_records(std::uint64_t seed, const Params& params,
                          std::size_t first_epoch, std::size_t epochs,
                          std::size_t flows) {
  EpochRecords out;
  out.sites = params.sites;
  out.first_epoch = first_epoch;
  out.records.reserve(epochs * params.sites);
  for (std::size_t epoch = first_epoch; epoch < first_epoch + epochs; ++epoch) {
    for (std::size_t site = 0; site < params.sites; ++site) {
      out.records.push_back(epoch_records(seed, site, epoch, flows));
    }
  }
  return out;
}

Cluster::Cluster(const Params& params, LayerTrace* trace) {
  const NodeId coordinator_node(0);
  std::vector<NodeId> shard_nodes;
  for (std::size_t i = 0; i <= params.shards; ++i) {
    endpoints_.push_back(std::make_unique<SocketTransport>());
    if (i > 0) shard_nodes.emplace_back(static_cast<std::uint32_t>(i));
  }
  for (std::size_t i = 0; i < params.shards; ++i) {
    endpoints_[0]->add_peer(shard_nodes[i], endpoints_[1 + i]->host(),
                            endpoints_[1 + i]->port());
  }
  const auto transport_of = [&](std::size_t endpoint) -> megads::net::Transport& {
    if (trace == nullptr) return *endpoints_[endpoint];
    return *traced_endpoints_[endpoint];
  };
  if (trace != nullptr) {
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
      traced_endpoints_.push_back(std::make_unique<TracedTransport>(
          *endpoints_[i], *trace, static_cast<int>(i) - 1));
    }
  }
  for (std::size_t i = 0; i < params.shards; ++i) {
    servers_.push_back(std::make_unique<PartitionServer>(
        transport_of(1 + i), shard_nodes[i]));
    if (trace != nullptr) servers_.back()->db().attach_metrics(registry_);
  }
  coordinator_ = std::make_unique<Coordinator>(
      transport_of(0), coordinator_node,
      megads::flowdb::dist::make_partitioner("by-location"), shard_nodes);

  megads::serve::FlowQLServer::Options server_options;
  server_options.workers = params.server_workers;
  const megads::flowdb::SummarySource* source = coordinator_.get();
  if (trace != nullptr) {
    traced_source_ = std::make_unique<TracedSource>(*coordinator_, *trace);
    source = traced_source_.get();
  }
  server_ = std::make_unique<megads::serve::FlowQLServer>(*source,
                                                          server_options);
  if (trace != nullptr) server_->attach_metrics(registry_);
  server_->start();
}

Cluster::~Cluster() {
  // Stop serving before the source and transports go away; the members'
  // reverse declaration order then tears down coordinator, servers and
  // endpoints in dependency order.
  server_->stop();
}

megads::net::Transport& Cluster::coordinator_transport() {
  if (!traced_endpoints_.empty()) return *traced_endpoints_[0];
  return *endpoints_[0];
}

void Cluster::load(const EpochRecords& history) {
  for (std::size_t epoch = history.first_epoch;
       epoch < history.first_epoch + history.epochs(); ++epoch) {
    for (std::size_t site = 0; site < history.sites; ++site) {
      coordinator_->add(build_tree(history.at(epoch, site)),
                        epoch_interval(epoch), site_name(site));
    }
  }
  coordinator_->flush();
  coordinator_transport().run_until_idle();
}

void Cluster::warm_up(const std::vector<std::string>& statements) {
  for (const std::string& statement : statements) {
    (void)megads::flowdb::run_flowql(statement, *coordinator_);
  }
}

Counters Cluster::counters() const {
  Counters c;
  const auto plan = server_->planner().stats();
  c.planned = plan.planned;
  c.shared_folds = plan.shared_folds;
  c.read_only_folds = plan.read_only_folds;
  c.fallbacks = plan.fallbacks;
  c.remote_shard_queries = coordinator_->remote_shard_queries();
  c.fanout_pruned = coordinator_->fanout_pruned_shards();
  for (const auto& server : servers_) {
    c.memo_hits += server->response_memo_hits();
    c.memo_misses += server->response_memo_misses();
  }
  const megads::metrics::Snapshot snapshot = registry_.snapshot();
  c.view_hits =
      static_cast<std::uint64_t>(snapshot.value("flowdb.view_cache_hits"));
  c.view_misses =
      static_cast<std::uint64_t>(snapshot.value("flowdb.view_cache_misses"));
  c.server_bytes_out = server_->stats().bytes_out;
  return c;
}

std::uint64_t Cluster::coordinator_dropped() const {
  return coordinator_->dropped_messages();
}

std::uint64_t Cluster::shard_dropped() const {
  std::uint64_t n = 0;
  for (const auto& server : servers_) n += server->dropped_messages();
  return n;
}

std::uint64_t Cluster::dropped_frames() const {
  std::uint64_t n = 0;
  for (const auto& endpoint : endpoints_) n += endpoint->dropped_frames();
  return n;
}

}  // namespace e2e
