// bench_e2e — end-to-end FlowQL benchmark over the full socket stack:
//
//   client sockets -> FlowQLServer (RequestScheduler, shared QueryPlanner)
//     -> Coordinator (by-location) -> SocketTransport
//     -> 4 PartitionServers (one endpoint each, each over its own FlowDB)
//
// all in this process, with the query load generated by a forked child
// process (loadgen.hpp) over loopback TCP.
//
//   bench_e2e --workload dashboard|adhoc|ingest_mixed --seed N --seconds S
//             --trace 0|1 [--revision TEXT]
//
// --trace 0 sets the system up five times (setup_s is the median), runs
// one untraced pass of S seconds and prints the end-to-end metrics.
// --trace 1 runs an untraced and a traced pass of S/2 seconds each and
// prints the per-layer metrics of the traced one, the stage-time
// reconciliation and the tracing overhead. Either way the last line of
// stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The human-readable report, including a "provenance:" JSON line, precedes
// it. A wrong answer, a failed operation, a non-zero drop/decode/fallback
// counter, or (--trace 0) fewer than 1000 completed queries makes "correct"
// false.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster.hpp"
#include "loadgen.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workload.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace e2e {
namespace {

using megads::bench::Clock;
using megads::bench::ms_since;
using megads::bench::us_since;

constexpr std::size_t kSetupRepeats = 5;
/// Completed queries an end-to-end run needs for its p99 to mean anything.
constexpr double kMinQueries = 1000;
/// PartitionServer's default response-memo budget (it has no getter).
constexpr std::size_t kMemoBudgetBytes = 8u << 20;

struct Args {
  Workload workload = Workload::kDashboard;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string revision = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = parse_workload(value);
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || args.seconds <= 0.0 || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: bench_e2e --workload dashboard|adhoc|ingest_mixed --seed N "
        "--seconds S --trace 0|1 [--revision TEXT]");
  }
  return args;
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Generator child
// ---------------------------------------------------------------------------

/// The forked generator and the two pipes to it.
class Child {
 public:
  explicit Child(const GeneratorSpec& spec) {
    int to_child[2];
    int from_child[2];
    if (::pipe(to_child) != 0 || ::pipe(from_child) != 0) {
      throw std::runtime_error("bench_e2e: pipe() failed");
    }
    std::fflush(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("bench_e2e: fork() failed");
    if (pid_ == 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      int code = 3;
      try {
        code = run_generator(spec, to_child[0], from_child[1]);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_e2e generator: %s\n", e.what());
      }
      std::fflush(nullptr);
      ::_exit(code);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    out_ = to_child[1];
    in_ = from_child[0];
  }

  ~Child() {
    if (out_ >= 0) ::close(out_);
    if (in_ >= 0) ::close(in_);
    if (pid_ > 0) {
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }

  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  Reply request(const std::string& command, const std::string& expect) {
    write_line(out_, command);
    std::string line;
    if (!read_line(in_, line)) {
      throw std::runtime_error("bench_e2e: generator died during '" + command + "'");
    }
    Reply reply = parse_reply(line);
    if (reply.tag != expect) {
      throw std::runtime_error("bench_e2e: generator replied '" + line + "'");
    }
    return reply;
  }

  /// Reap the child; true when it exited with status 0.
  bool wait() {
    ::close(out_);
    out_ = -1;
    int status = 0;
    const pid_t pid = pid_;
    pid_ = -1;
    return ::waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
           WEXITSTATUS(status) == 0;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
  int in_ = -1;
};

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct WriterFigures {
  std::uint64_t offered = 0;
  std::uint64_t acked = 0;
  std::uint64_t failed = 0;
  std::vector<double> ack_ms;
  std::vector<double> lag_ms;
  std::vector<double> add_us;
  double build_us = 0.0;
  std::uint64_t flows = 0;
};

/// Exports every epoch of `writes` on a fixed schedule: epoch i is due at
/// start + i * period. Its ack time runs from that due time until flush()
/// and the transport pump have returned, i.e. until every shard indexed it.
WriterFigures run_writer(Cluster& cluster, const EpochRecords& writes,
                         double period_ms) {
  WriterFigures out;
  const auto start = Clock::now();
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(period_ms));
  for (std::size_t i = 0; i < writes.epochs(); ++i) {
    const std::size_t epoch = writes.first_epoch + i;
    const auto due = start + period * static_cast<long>(i);
    std::this_thread::sleep_until(due);
    out.lag_ms.push_back(ms_since(due));
    ++out.offered;
    try {
      for (std::size_t site = 0; site < writes.sites; ++site) {
        const auto& records = writes.at(epoch, site);
        const auto built = Clock::now();
        megads::flowtree::Flowtree tree = build_tree(records);
        out.build_us += us_since(built);
        const auto added = Clock::now();
        cluster.coordinator().add(tree, epoch_interval(epoch), site_name(site));
        out.add_us.push_back(us_since(added));
        out.flows += records.size();
      }
      cluster.coordinator().flush();
      cluster.coordinator_transport().run_until_idle();
      out.ack_ms.push_back(ms_since(due));
      ++out.acked;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_e2e: epoch %zu export failed: %s\n", epoch,
                   e.what());
      ++out.failed;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// One pass: a set-up cluster, the timed loop, the writer, the stack checks
// ---------------------------------------------------------------------------

struct Inputs {
  Params params;
  EpochRecords history;
  EpochRecords writes;
  std::vector<std::string> panels;
};

struct ShardFootprint {
  std::uint64_t summaries = 0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t raw_bytes = 0;
  std::size_t view_cache_budget = 0;
};

struct Pass {
  Reply loop;
  WriterFigures writer;
  Counters before;
  Counters after;
  std::vector<ShardFootprint> shards;
  std::uint64_t coordinator_dropped = 0;
  std::uint64_t shard_dropped = 0;
  std::uint64_t dropped_frames = 0;
  std::uint64_t response_decodes = 0;
  double queue_wait_p50_us = 0.0;
  double queue_wait_mean_us = 0.0;
  std::size_t full_statements = 0;
  double peak_rss_mib = 0.0;
};

std::unique_ptr<Cluster> set_up(const Inputs& inputs, LayerTrace* trace,
                                double* elapsed_s) {
  const auto start = Clock::now();
  auto cluster = std::make_unique<Cluster>(inputs.params, trace);
  cluster->load(inputs.history);
  cluster->warm_up(inputs.panels);
  *elapsed_s = ms_since(start) / 1000.0;
  return cluster;
}

Pass run_pass(Cluster& cluster, const Inputs& inputs, Workload workload,
              Child& child, LayerTrace* trace, bool last) {
  Pass pass;
  pass.before = cluster.counters();
  if (trace != nullptr) trace->recording = true;
  const std::string port = std::to_string(cluster.port());
  std::optional<std::thread> writer;
  if (workload == Workload::kIngestMixed) {
    writer.emplace([&] {
      pass.writer = run_writer(cluster, inputs.writes,
                               inputs.params.write_period_ms);
    });
  }
  try {
    pass.loop = child.request("go " + port, "loop_done");
  } catch (...) {
    if (writer) writer->join();
    throw;
  }
  pass.after = cluster.counters();
  if (writer) {
    writer->join();
  } else {
    // Dashboard and ad-hoc: the same exports, on the otherwise idle system.
    pass.writer = run_writer(cluster, inputs.writes,
                             inputs.params.write_period_ms);
  }
  // Peak memory of the workload itself, before the stack checks below fold
  // the whole history.
  pass.peak_rss_mib = peak_rss_mib();
  if (trace != nullptr) trace->recording = false;
  if (last) {
    // The full-history check runs on the cluster of the last pass only: the
    // traced run's untraced pass is a timing baseline.
    (void)child.request("full " + port, "full_done");
    pass.full_statements = full_history_statements(inputs.params).size();
  }

  for (std::size_t i = 0; i < cluster.shards(); ++i) {
    const auto& shard = cluster.shard(i);
    pass.shards.push_back({shard.db().summary_count(),
                           shard.db().memory_bytes(), shard.raw_bytes(),
                           shard.db().view_cache_budget()});
  }
  pass.coordinator_dropped = cluster.coordinator_dropped();
  pass.shard_dropped = cluster.shard_dropped();
  pass.dropped_frames = cluster.dropped_frames();
  pass.response_decodes = cluster.coordinator().response_decodes();
  const auto& wait = cluster.registry().histogram("serve.sched.queue_wait_us");
  pass.queue_wait_p50_us = wait.quantile(0.5);
  pass.queue_wait_mean_us = wait.mean();
  return pass;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string json_result(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i ? ", " : "") << "\"" << metrics[i].name
        << "\": {\"value\": " << json_number(metrics[i].value)
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }


std::uint64_t pass_failures(const Pass& pass) {
  return static_cast<std::uint64_t>(pass.loop.get("errors") +
                                    pass.loop.get("dropped") +
                                    pass.loop.get("timeouts")) +
         pass.writer.failed + (pass.writer.offered - pass.writer.acked -
                               pass.writer.failed);
}

std::uint64_t pass_attempts(const Pass& pass) {
  return static_cast<std::uint64_t>(pass.loop.get("issued")) +
         pass.writer.offered + pass.full_statements;
}

/// Integrity counters that must stay 0; prints each offender.
bool integrity_ok(const Pass& pass, const LayerTrace* trace) {
  bool ok = true;
  const auto require_zero = [&](const char* name, std::uint64_t value) {
    if (value != 0) {
      std::printf("INTEGRITY: %s = %llu (must be 0)\n", name,
                  static_cast<unsigned long long>(value));
      ok = false;
    }
  };
  require_zero("coord.dropped", pass.coordinator_dropped);
  require_zero("shard.dropped", pass.shard_dropped);
  require_zero("net.dropped_frames", pass.dropped_frames);
  require_zero("coord.response_decodes", pass.response_decodes);
  require_zero("plan.fallbacks", pass.after.fallbacks - pass.before.fallbacks);
  if (trace != nullptr) {
    require_zero("net.undecodable_messages", trace->undecodable_messages.load());
  }
  return ok;
}

void print_pass(const char* label, const Pass& pass) {
  const Distribution ack(pass.writer.ack_ms);
  const Distribution lag(pass.writer.lag_ms);
  std::printf(
      "%-9s queries %6.0f in %.2f s  %8.1f q/s  p50 %8.3f ms  p99 %8.3f ms "
      "(medians of %zu windows)  errors %.0f dropped %.0f timeouts %.0f\n",
      label, pass.loop.get("completed"), pass.loop.get("elapsed_s"),
      pass.loop.get("rate_qps"), pass.loop.get("p50_ms"),
      pass.loop.get("p99_ms"), kWindows, pass.loop.get("errors"),
      pass.loop.get("dropped"), pass.loop.get("timeouts"));
  std::printf(
      "%-9s writer epochs offered %llu acked %llu failed %llu  ack p50 %.3f ms "
      "p99 %.3f ms  lag p50 %.3f ms max %.3f ms\n",
      label, static_cast<unsigned long long>(pass.writer.offered),
      static_cast<unsigned long long>(pass.writer.acked),
      static_cast<unsigned long long>(pass.writer.failed), ack.quantile(0.5),
      ack.quantile(0.99), lag.quantile(0.5), lag.max());
}

void print_provenance(const Args& args, const Inputs& inputs, const Pass& pass) {
  std::uint64_t summaries = 0;
  std::ostringstream shards;
  for (std::size_t i = 0; i < pass.shards.size(); ++i) {
    const ShardFootprint& s = pass.shards[i];
    summaries += s.summaries;
    shards << (i ? ", " : "") << "{\"summaries\": " << s.summaries
           << ", \"fbk1_bytes\": " << s.raw_bytes
           << ", \"memory_bytes\": " << s.memory_bytes
           << ", \"view_cache_budget\": " << s.view_cache_budget
           << ", \"memo_budget\": " << kMemoBudgetBytes << "}";
  }
  const Params& p = inputs.params;
  const Distribution lag(pass.writer.lag_ms);
  std::printf(
      "provenance: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"revision\": \"%s\", \"build_type\": \"%s\", "
      "\"nproc\": %u, \"topology\": {\"sites\": %zu, \"shards\": %zu, "
      "\"partitioner\": \"by-location\", \"endpoints\": %zu, "
      "\"server_workers\": %zu, \"connections\": %zu}, "
      "\"history\": {\"epochs\": %zu, \"flows_per_summary\": %zu}, "
      "\"summary_count\": %llu, \"shards\": [%s], "
      "\"queries_completed\": %.0f, \"writer\": {\"epochs_offered\": %llu, "
      "\"epochs_acked\": %llu, \"flows_per_summary\": %zu, "
      "\"period_ms\": %s, \"lag_ms_p50\": %s, \"lag_ms_max\": %s}}\n",
      workload_name(args.workload),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0,
      args.revision.c_str(), E2E_BUILD_TYPE,
      std::thread::hardware_concurrency(), p.sites, p.shards, p.shards + 1,
      p.server_workers, p.connections, p.history_epochs, p.flows_per_summary,
      static_cast<unsigned long long>(summaries), shards.str().c_str(),
      pass.loop.get("completed"),
      static_cast<unsigned long long>(pass.writer.offered),
      static_cast<unsigned long long>(pass.writer.acked), p.write_flows,
      json_number(p.write_period_ms).c_str(),
      json_number(lag.quantile(0.5)).c_str(), json_number(lag.max()).c_str());
}

/// Per-layer metrics of a traced pass, plus the reconciliation of the stage
/// times against the client-side latency.
std::vector<Metric> layer_metrics(const Pass& pass, const LayerTrace& trace) {
  const Counters& a = pass.before;
  const Counters& b = pass.after;
  const double queries = pass.loop.get("completed");
  const Distribution merged(trace.merged_us.values());
  const Distribution probe(trace.probe_us.values());
  const Distribution fold(trace.fold_us.values());
  const Distribution pump(trace.pump_us.values());
  const Distribution send(trace.send_us.values());
  const Distribution source(trace.source_per_query_us.values());
  const double folds = static_cast<double>(merged.count());

  std::vector<double> shard_all;
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (const Samples& shard : trace.shard_query_us) {
    const std::vector<double> values = shard.values();
    shard_all.insert(shard_all.end(), values.begin(), values.end());
    const double busy = Distribution(values).sum();
    busy_max = std::max(busy_max, busy);
    busy_sum += busy;
  }
  const Distribution shard_query(std::move(shard_all));
  const Distribution shard_add(trace.shard_add_us.values());
  const Distribution add(pass.writer.add_us);
  const Distribution lag(pass.writer.lag_ms);

  std::uint64_t summaries = 0;
  std::uint64_t memory = 0;
  for (const ShardFootprint& s : pass.shards) {
    summaries += s.summaries;
    memory += s.memory_bytes;
  }
  const double e2e_p50_us = pass.loop.get("p50_ms") * 1e3;
  const double planned = static_cast<double>(b.planned - a.planned);
  const double memo = static_cast<double>((b.memo_hits - a.memo_hits) +
                                          (b.memo_misses - a.memo_misses));
  const double views = static_cast<double>((b.view_hits - a.view_hits) +
                                           (b.view_misses - a.view_misses));
  const double shards = static_cast<double>(trace.shard_query_us.size());

  return {
      {"serve.other_us.p50", e2e_p50_us - source.quantile(0.5), "us"},
      {"serve.queue_wait_us.p50", pass.queue_wait_p50_us, "us"},
      {"serve.bytes_out_per_query",
       ratio(static_cast<double>(b.server_bytes_out - a.server_bytes_out),
             queries),
       "bytes"},
      {"plan.shared_fold_ratio",
       ratio(static_cast<double>(b.shared_folds - a.shared_folds), planned),
       "ratio"},
      {"plan.read_only_ratio",
       ratio(static_cast<double>(b.read_only_folds - a.read_only_folds),
             planned),
       "ratio"},
      {"plan.fallbacks", static_cast<double>(b.fallbacks - a.fallbacks),
       "count"},
      {"coord.merged_us.p50", merged.quantile(0.5), "us"},
      {"coord.merged_us.p99", merged.quantile(0.99), "us"},
      {"coord.probe_us.p50", probe.quantile(0.5), "us"},
      {"coord.fold_us.p50", fold.quantile(0.5), "us"},
      {"coord.shards_per_query",
       ratio(static_cast<double>(b.remote_shard_queries -
                                 a.remote_shard_queries),
             folds),
       "count"},
      {"coord.pruned_per_query",
       ratio(static_cast<double>(b.fanout_pruned - a.fanout_pruned), folds),
       "count"},
      {"net.pump_us.p50", pump.quantile(0.5), "us"},
      {"net.pump_us.p99", pump.quantile(0.99), "us"},
      {"net.send_us.p50", send.quantile(0.5), "us"},
      {"net.payload_bytes_per_query",
       ratio(static_cast<double>(trace.query_payload_bytes.load()), folds),
       "bytes"},
      {"net.messages_per_query",
       ratio(static_cast<double>(trace.query_messages.load()), folds), "count"},
      {"shard.query_us.p50", shard_query.quantile(0.5), "us"},
      {"shard.query_us.p99", shard_query.quantile(0.99), "us"},
      {"shard.busy_skew", ratio(busy_max, busy_sum / shards), "ratio"},
      {"shard.memo_hit_ratio",
       ratio(static_cast<double>(b.memo_hits - a.memo_hits), memo), "ratio"},
      {"shard.add_us.p50", shard_add.quantile(0.5), "us"},
      {"flowdb.view_cache_hit_ratio",
       ratio(static_cast<double>(b.view_hits - a.view_hits), views), "ratio"},
      {"flowdb.bytes_per_summary",
       ratio(static_cast<double>(memory), static_cast<double>(summaries)),
       "bytes"},
      {"flowtree.build_us_per_flow",
       ratio(pass.writer.build_us, static_cast<double>(pass.writer.flows)),
       "us"},
      {"ingest.add_us.p50", add.quantile(0.5), "us"},
      {"ingest.lag_ms", lag.max(), "ms"},
  };
}

/// Stage times per client query against the client-side latency. Means add
/// up, so the residual is exactly what no span covers (socket, event loop,
/// parse, plan, operators, render); medians are shown beside them.
void print_reconciliation(const Pass& pass, const LayerTrace& trace) {
  const double queries = pass.loop.get("completed");
  struct Stage {
    const char* name;
    double total_us;
    double p50_us;
  };
  const Distribution probe(trace.probe_us.values());
  const Distribution fold(trace.fold_us.values());
  const Distribution send(trace.send_us.values());
  const Distribution pump(trace.pump_per_fold_us.values());
  const std::vector<Stage> stages = {
      {"serve.queue_wait", pass.queue_wait_mean_us * queries,
       pass.queue_wait_p50_us},
      {"coord.probe", probe.sum(), probe.quantile(0.5)},
      {"coord.fold (self)", fold.sum(), fold.quantile(0.5)},
      {"net.send", send.sum(), send.quantile(0.5)},
      {"net.pump (incl. shard)", pump.sum(), pump.quantile(0.5)},
  };
  const double e2e_mean_us = pass.loop.get("mean_ms") * 1e3;
  const double e2e_p50_us = pass.loop.get("p50_ms") * 1e3;
  std::printf("stage reconciliation (per client query, %.0f queries)\n",
              queries);
  std::printf("  %-24s %14s %14s\n", "stage", "mean_us", "p50_us");
  double mean_sum = 0.0;
  double p50_sum = 0.0;
  for (const Stage& stage : stages) {
    const double mean = ratio(stage.total_us, queries);
    mean_sum += mean;
    p50_sum += stage.p50_us;
    std::printf("  %-24s %14.1f %14.1f\n", stage.name, mean, stage.p50_us);
  }
  std::printf("  %-24s %14.1f %14.1f\n", "sum of stages", mean_sum, p50_sum);
  std::printf("  %-24s %14.1f %14.1f\n", "client e2e", e2e_mean_us, e2e_p50_us);
  std::printf("  %-24s %13.1f%% %13.1f%%\n", "unattributed residual",
              100.0 * ratio(e2e_mean_us - mean_sum, e2e_mean_us),
              100.0 * ratio(e2e_p50_us - p50_sum, e2e_p50_us));
  const Distribution shard_add(trace.shard_add_us.values());
  std::printf("  (shard handlers: %zu query dispatches; %zu add batches)\n",
              [&] {
                std::size_t n = 0;
                for (const Samples& s : trace.shard_query_us) n += s.count();
                return n;
              }(),
              shard_add.count());
}

int run(const Args& args) {
  const double pass_seconds = args.trace ? args.seconds / 2.0 : args.seconds;
  GeneratorSpec spec;
  spec.workload = args.workload;
  spec.seed = args.seed;
  spec.seconds = pass_seconds;
  spec.params = params_for(args.workload, pass_seconds);
  // Fork before this process starts any thread.
  Child child(spec);

  Inputs inputs;
  inputs.params = spec.params;
  const Params& p = inputs.params;
  inputs.history = make_records(args.seed, p, 0, p.history_epochs,
                                p.flows_per_summary);
  inputs.writes = make_records(args.seed, p, p.history_epochs, p.write_epochs,
                               p.write_flows);
  inputs.panels = dashboard_panels(p);
  std::printf("bench_e2e: workload %s, seed %llu, %s s per pass, trace %d\n",
              workload_name(args.workload),
              static_cast<unsigned long long>(args.seed),
              json_number(pass_seconds).c_str(), args.trace ? 1 : 0);

  std::vector<Pass> passes;
  std::vector<double> setups;
  LayerTrace trace(p.shards);
  bool integrity = true;
  {
    // Untraced pass: after kSetupRepeats set-ups (only the last one is kept)
    // for the end-to-end run, after one for the traced run's baseline.
    std::unique_ptr<Cluster> cluster;
    for (std::size_t i = 0; i < (args.trace ? 1 : kSetupRepeats); ++i) {
      cluster.reset();
      double elapsed = 0.0;
      cluster = set_up(inputs, nullptr, &elapsed);
      setups.push_back(elapsed);
    }
    passes.push_back(run_pass(*cluster, inputs, args.workload, child, nullptr,
                              !args.trace));
    integrity = integrity_ok(passes.back(), nullptr) && integrity;
  }
  std::vector<Metric> layers;
  if (args.trace) {
    double elapsed = 0.0;
    std::unique_ptr<Cluster> cluster = set_up(inputs, &trace, &elapsed);
    passes.push_back(run_pass(*cluster, inputs, args.workload, child, &trace, true));
    cluster->server().stop();
    cluster->traced_source()->flush_queries();
    integrity = integrity_ok(passes.back(), &trace) && integrity;
    layers = layer_metrics(passes.back(), trace);
  }
  const Reply checked = child.request("check", "checked");
  const bool child_ok = child.wait();

  const Pass& e2e = passes.front();
  print_pass(args.trace ? "untraced" : "e2e", e2e);
  if (args.trace) print_pass("traced", passes.back());
  print_provenance(args, inputs, passes.back());
  std::printf(
      "correctness: %.0f answers checked (%.0f statements), %.0f wrong, "
      "%.0f known FBK1 fold divergence(s); "
      "full-history: %.0f pass(es) x %.0f statements, %.0f failed, %.0f wrong "
      "(%.1f ms through the stack); reference built and queried in %.2f s "
      "(%.2f s waited for)\n",
      checked.get("checked"), checked.get("statements"),
      checked.get("mismatches"), checked.get("divergences"),
      checked.get("full_passes"),
      checked.get("full_statements"), checked.get("full_errors"),
      checked.get("full_mismatches"), checked.get("full_ms"),
      checked.get("reference_s"), checked.get("check_wait_s"));

  std::uint64_t attempted = 0;
  std::uint64_t failed = static_cast<std::uint64_t>(
      checked.get("mismatches") + checked.get("full_errors"));
  for (const Pass& pass : passes) {
    attempted += pass_attempts(pass);
    failed += pass_failures(pass);
  }
  const bool enough = args.trace || e2e.loop.get("completed") >= kMinQueries;
  if (!enough) {
    std::printf("TOO FEW QUERIES: %.0f completed, a run needs %.0f\n",
                e2e.loop.get("completed"), kMinQueries);
  }
  const bool correct = child_ok && integrity && failed == 0 && enough &&
                       checked.get("mismatches") == 0 &&
                       checked.get("checked") > 0 &&
                       checked.get("full_passes") == 1 &&
                       checked.get("full_statements") ==
                           static_cast<double>(passes.back().full_statements);
  std::printf("op_fail_ratio: %.6f (%llu failed of %llu attempted)\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  std::vector<Metric> metrics;
  if (args.trace) {
    print_reconciliation(passes.back(), trace);
    const Pass& traced = passes.back();
    std::printf(
        "tracing overhead: p50 %+.1f%% (%.3f -> %.3f ms), q/s %+.1f%%\n",
        100.0 * (ratio(traced.loop.get("p50_ms"), e2e.loop.get("p50_ms")) - 1.0),
        e2e.loop.get("p50_ms"), traced.loop.get("p50_ms"),
        100.0 * (ratio(traced.loop.get("rate_qps"), e2e.loop.get("rate_qps")) -
                 1.0));
    std::printf("per-layer metrics (traced pass)\n");
    for (const Metric& m : layers) {
      std::printf("  %-30s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    metrics = layers;
  } else {
    const Distribution ack(e2e.writer.ack_ms);
    const Distribution setup(setups);
    metrics = {
        {"query_qps", e2e.loop.get("rate_qps"), "1/s"},
        {"query_p50_ms", e2e.loop.get("p50_ms"), "ms"},
        {"query_p99_ms", e2e.loop.get("p99_ms"), "ms"},
        {"ingest_ack_p50_ms", ack.quantile(0.5), "ms"},
        {"setup_s", setup.quantile(0.5), "s"},
        {"peak_rss_mb", e2e.peak_rss_mib, "MiB"},
    };
    std::printf("setup_s: median of");
    for (const double s : setups) std::printf(" %.3f", s);
    std::printf("\nend-to-end metrics\n");
    for (const Metric& m : metrics) {
      std::printf("  %-20s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("%s\n", json_result(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run(e2e::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
