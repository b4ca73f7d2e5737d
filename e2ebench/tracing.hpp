// Bench-local tracing for the traced pass of bench_e2e. Nothing here reaches
// into the program: spans are timed around calls into public interfaces.
//
//   TracedSource     a SummarySource decorator around the Coordinator, handed
//                    to FlowQLServer: times plan_probe() and every merged*()
//                    call, and splits each merged call into the time its
//                    thread spent sending and pumping the transport (the
//                    rest is the coordinator's own scatter/gather/fold work).
//   TracedTransport  a Transport decorator around one SocketTransport
//                    endpoint: times send_message() and run_until_idle(),
//                    wraps every handler passed to bind() to time its
//                    dispatch, and classifies each message by decoding its
//                    envelope (the decode is outside every timed section).
//
// Both forward every virtual unchanged, so the traced system runs the same
// code as the untraced one plus the timing.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "flowdb/source.hpp"
#include "net/socket_transport.hpp"
#include "net/transport.hpp"

namespace e2e {

/// Thread-safe sample list (microseconds, bytes or counts).
class Samples {
 public:
  void add(double value);
  [[nodiscard]] std::vector<double> values() const;
  [[nodiscard]] std::size_t count() const;

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

/// Every span and count the decorators record.
struct LayerTrace {
  explicit LayerTrace(std::size_t shards)
      : shard_query_us(shards) {}

  // coord: per SummarySource call.
  Samples probe_us;
  Samples merged_us;
  Samples fold_us;  ///< merged minus its send and pump time
  // net: on the query path (inside a source call).
  Samples pump_us;           ///< per run_until_idle() call
  Samples send_us;           ///< per merged call: its send_message() time
  Samples pump_per_fold_us;  ///< per merged call: its run_until_idle() time
  // Time one query spent in the source (probe + folds), per query.
  Samples source_per_query_us;
  // shard: handler dispatch on the partition servers' endpoints.
  std::deque<Samples> shard_query_us;  ///< kQueryRequest, per shard
  Samples shard_add_us;                ///< kAddBatch
  // Messages and payload bytes of the query path (request + response).
  std::atomic<std::uint64_t> query_messages{0};
  std::atomic<std::uint64_t> query_payload_bytes{0};
  std::atomic<std::uint64_t> undecodable_messages{0};
  /// Set for the measured traffic only, so neither the set-up (history
  /// load, warm-up) nor the stack checks that follow enter the figures.
  std::atomic<bool> recording{false};

  [[nodiscard]] bool on() const {
    return recording.load(std::memory_order_relaxed);
  }
};

class TracedSource final : public megads::flowdb::SummarySource {
 public:
  TracedSource(const megads::flowdb::SummarySource& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  TracedSource(const TracedSource&) = delete;
  TracedSource& operator=(const TracedSource&) = delete;

  [[nodiscard]] megads::flowtree::Flowtree merged(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::flowtree::MergedView merged_view(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::flowtree::MergedView merged_view_hint(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations,
      megads::flowdb::CacheMode mode) const override;
  [[nodiscard]] megads::flowdb::PlanProbe plan_probe(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override;
  [[nodiscard]] megads::ThreadPool* merge_pool() const noexcept override {
    return inner_.merge_pool();
  }

  /// Flush every thread's last open per-query total (call once the server
  /// has stopped).
  void flush_queries() const;

 private:
  /// Per worker thread: the source time of the query in progress. A query
  /// starts with its plan_probe() call, so the next probe on the same
  /// thread closes the previous query's total.
  struct QueryTotal {
    double us = 0.0;
    bool open = false;
  };
  [[nodiscard]] QueryTotal& total_for_this_thread() const;

  template <typename Fn>
  auto timed_fold(Fn&& fn) const;

  const megads::flowdb::SummarySource& inner_;
  LayerTrace& trace_;
  mutable std::mutex totals_mu_;
  mutable std::deque<std::pair<std::thread::id, QueryTotal>> totals_;
};

class TracedTransport final : public megads::net::Transport {
 public:
  /// `shard` is the partition index served on this endpoint, or -1 for the
  /// coordinator's endpoint.
  TracedTransport(megads::net::SocketTransport& inner, LayerTrace& trace,
                  int shard)
      : inner_(inner), trace_(trace), shard_(shard) {}

  TracedTransport(const TracedTransport&) = delete;
  TracedTransport& operator=(const TracedTransport&) = delete;

  megads::SimTime send(megads::NodeId from, megads::NodeId to,
                       std::uint64_t bytes,
                       DeliveryCallback on_delivered = nullptr) override {
    return inner_.send(from, to, bytes, std::move(on_delivered));
  }
  megads::SimTime send_message(megads::NodeId from, megads::NodeId to,
                               std::vector<std::uint8_t> payload) override;
  void bind(megads::NodeId node, MessageHandler handler) override;
  void unbind(megads::NodeId node) override { inner_.unbind(node); }
  [[nodiscard]] megads::SimDuration transfer_time_unloaded(
      megads::NodeId from, megads::NodeId to,
      std::uint64_t bytes) const override {
    return inner_.transfer_time_unloaded(from, to, bytes);
  }
  [[nodiscard]] megads::SimTime now() const override { return inner_.now(); }
  void run_until_idle() override;
  [[nodiscard]] megads::net::TransferStats stats() const override {
    return inner_.stats();
  }
  void attach_metrics(megads::metrics::MetricsRegistry& registry) override {
    inner_.attach_metrics(registry);
  }

 private:
  megads::net::SocketTransport& inner_;
  LayerTrace& trace_;
  int shard_;
};

}  // namespace e2e
