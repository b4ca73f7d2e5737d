#include "tracing.hpp"

#include <chrono>
#include <optional>

#include "bench_common.hpp"
#include "flowdb/partitioned/envelope.hpp"

namespace e2e {
namespace {

using megads::bench::Clock;
using megads::bench::us_since;
using megads::flowdb::dist::MessageType;

/// Transport time the current thread spent inside the source call in
/// progress; depth > 0 marks "on the query path".
struct CallContext {
  int depth = 0;
  double send_us = 0.0;
  double pump_us = 0.0;
};
thread_local CallContext t_call;

std::optional<MessageType> classify(const std::vector<std::uint8_t>& payload) {
  try {
    return megads::flowdb::dist::decode(payload).type;
  } catch (...) {
    return std::nullopt;
  }
}

}  // namespace

void Samples::add(double value) {
  const std::lock_guard lock(mu_);
  values_.push_back(value);
}

std::vector<double> Samples::values() const {
  const std::lock_guard lock(mu_);
  return values_;
}

std::size_t Samples::count() const {
  const std::lock_guard lock(mu_);
  return values_.size();
}

// ---------------------------------------------------------------------------
// TracedSource
// ---------------------------------------------------------------------------

TracedSource::QueryTotal& TracedSource::total_for_this_thread() const {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard lock(totals_mu_);
  for (auto& [id, total] : totals_) {
    if (id == self) return total;
  }
  return totals_.emplace_back(self, QueryTotal{}).second;
}

void TracedSource::flush_queries() const {
  const std::lock_guard lock(totals_mu_);
  for (auto& [id, total] : totals_) {
    if (total.open) trace_.source_per_query_us.add(total.us);
    total = QueryTotal{};
  }
}

template <typename Fn>
auto TracedSource::timed_fold(Fn&& fn) const {
  const CallContext saved = t_call;
  t_call = CallContext{saved.depth + 1, 0.0, 0.0};
  const auto start = Clock::now();
  auto result = fn();
  const double us = us_since(start);
  const CallContext inner = t_call;
  t_call = saved;
  if (!trace_.on()) return result;
  trace_.merged_us.add(us);
  trace_.send_us.add(inner.send_us);
  trace_.pump_per_fold_us.add(inner.pump_us);
  trace_.fold_us.add(us - inner.send_us - inner.pump_us);
  total_for_this_thread().us += us;
  return result;
}

megads::flowtree::Flowtree TracedSource::merged(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  return timed_fold([&] { return inner_.merged(intervals, locations); });
}

megads::flowtree::MergedView TracedSource::merged_view(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  return timed_fold([&] { return inner_.merged_view(intervals, locations); });
}

megads::flowtree::MergedView TracedSource::merged_view_hint(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations,
    megads::flowdb::CacheMode mode) const {
  return timed_fold(
      [&] { return inner_.merged_view_hint(intervals, locations, mode); });
}

megads::flowdb::PlanProbe TracedSource::plan_probe(
    const std::vector<megads::TimeInterval>& intervals,
    const std::vector<std::string>& locations) const {
  if (!trace_.on()) return inner_.plan_probe(intervals, locations);
  QueryTotal& total = total_for_this_thread();
  if (total.open) trace_.source_per_query_us.add(total.us);
  total = QueryTotal{0.0, true};
  const auto start = Clock::now();
  megads::flowdb::PlanProbe probe = inner_.plan_probe(intervals, locations);
  const double us = us_since(start);
  trace_.probe_us.add(us);
  total.us += us;
  return probe;
}

// ---------------------------------------------------------------------------
// TracedTransport
// ---------------------------------------------------------------------------

megads::SimTime TracedTransport::send_message(
    megads::NodeId from, megads::NodeId to, std::vector<std::uint8_t> payload) {
  if (!trace_.on()) return inner_.send_message(from, to, std::move(payload));
  const std::optional<MessageType> type = classify(payload);
  if (!type) {
    trace_.undecodable_messages.fetch_add(1, std::memory_order_relaxed);
  } else if (*type == MessageType::kQueryRequest) {
    trace_.query_messages.fetch_add(1, std::memory_order_relaxed);
    trace_.query_payload_bytes.fetch_add(payload.size(),
                                         std::memory_order_relaxed);
  }
  const auto start = Clock::now();
  const megads::SimTime delivered =
      inner_.send_message(from, to, std::move(payload));
  if (t_call.depth > 0) t_call.send_us += us_since(start);
  return delivered;
}

void TracedTransport::bind(megads::NodeId node, MessageHandler handler) {
  inner_.bind(node, [this, handler = std::move(handler)](
                        megads::NodeId from,
                        const std::vector<std::uint8_t>& payload,
                        megads::SimTime now) {
    if (!trace_.on()) {
      handler(from, payload, now);
      return;
    }
    const std::optional<MessageType> type = classify(payload);
    if (!type) {
      trace_.undecodable_messages.fetch_add(1, std::memory_order_relaxed);
    } else if (shard_ < 0 && *type == MessageType::kQueryResponse) {
      trace_.query_messages.fetch_add(1, std::memory_order_relaxed);
      trace_.query_payload_bytes.fetch_add(payload.size(),
                                           std::memory_order_relaxed);
    }
    const auto start = Clock::now();
    handler(from, payload, now);
    const double us = us_since(start);
    if (shard_ < 0 || !type) return;
    const auto shard = static_cast<std::size_t>(shard_);
    if (*type == MessageType::kQueryRequest) {
      trace_.shard_query_us[shard].add(us);
    } else if (*type == MessageType::kAddBatch) {
      trace_.shard_add_us.add(us);
    }
  });
}

void TracedTransport::run_until_idle() {
  const auto start = Clock::now();
  inner_.run_until_idle();
  if (t_call.depth == 0 || !trace_.on()) return;
  const double us = us_since(start);
  t_call.pump_us += us;
  trace_.pump_us.add(us);
}

}  // namespace e2e
