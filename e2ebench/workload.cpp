#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "trace/flowgen.hpp"

namespace e2e {

using megads::TimeInterval;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

Workload parse_workload(const std::string& name) {
  if (name == "dashboard") return Workload::kDashboard;
  if (name == "adhoc") return Workload::kAdhoc;
  if (name == "ingest_mixed") return Workload::kIngestMixed;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kDashboard:
      return "dashboard";
    case Workload::kAdhoc:
      return "adhoc";
    case Workload::kIngestMixed:
      return "ingest_mixed";
  }
  return "?";
}

Params params_for(Workload workload, double seconds) {
  Params params;
  const double ingest_period_ms = 80.0;
  params.write_epochs = static_cast<std::size_t>(
      std::max(100.0, seconds * 1000.0 / ingest_period_ms));
  if (workload == Workload::kIngestMixed) {
    // 3 reader connections + the writer thread: 4 in total. The work is
    // fixed by the run length, not by how fast ingest keeps up.
    params.connections = 3;
    params.write_period_ms = ingest_period_ms;
  } else {
    params.write_period_ms = 10.0;
  }
  return params;
}

std::string site_name(std::size_t site) {
  return "site-" + std::to_string(site);
}

TimeInterval epoch_interval(std::size_t epoch) {
  const auto begin = static_cast<megads::SimTime>(epoch) * megads::kMinute;
  return TimeInterval{begin, begin + megads::kMinute};
}

std::vector<megads::flow::FlowRecord> epoch_records(std::uint64_t seed,
                                                    std::size_t site,
                                                    std::size_t epoch,
                                                    std::size_t flows) {
  megads::trace::FlowGenConfig config;
  config.seed = mix(mix(seed) ^ (site << 20) ^ epoch);
  config.site = static_cast<std::uint32_t>(site);
  megads::trace::FlowGenerator generator(config);
  return generator.generate(flows);
}

megads::flowtree::Flowtree build_tree(
    const std::vector<megads::flow::FlowRecord>& records) {
  megads::flowtree::Flowtree tree;
  for (const megads::flow::FlowRecord& record : records) {
    tree.add(record.key, static_cast<double>(record.bytes));
  }
  return tree;
}

std::string epoch_range(std::size_t first, std::size_t last) {
  return std::to_string(first * 60) + "s.." + std::to_string(last * 60) + "s";
}

std::vector<std::string> dashboard_panels(const Params& params) {
  const std::size_t h = params.history_epochs;
  const std::string recent = epoch_range(h - 2, h);
  const std::string hour = epoch_range(h - 8, h);
  return {
      "SELECT topk(10) FROM " + recent,
      "SELECT hhh(0.05) FROM " + recent,
      "SELECT above(250000) FROM " + recent,
      "SELECT topk(10) FROM " + hour,
      "SELECT hhh(0.05) FROM " + hour,
      "SELECT above(1000000) FROM " + hour,
      "SELECT topk(10) FROM " + hour + " WHERE location = '" + site_name(1) + "'",
      "SELECT topk(10) FROM " + hour + " WHERE location = '" + site_name(6) + "'",
  };
}

AdhocStream::AdhocStream(std::uint64_t seed, std::size_t connection,
                         const Params& params)
    : state_(mix(seed ^ (0xad0cull << 32) ^ connection)),
      params_(params) {}

std::string AdhocStream::next() {
  const auto draw = [this](std::uint64_t n) {
    state_ = mix(state_);
    return state_ % n;
  };
  const std::size_t length = 1 + draw(4);
  const std::size_t first = draw(params_.history_epochs - length + 1);
  std::string op;
  switch (draw(3)) {
    case 0:
      op = "topk(" + std::to_string(3 + draw(18)) + ")";
      break;
    case 1: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "hhh(0.%02u)",
                    static_cast<unsigned>(2 + draw(18)));
      op = buf;
      break;
    }
    default:
      op = "above(" + std::to_string((1 + draw(20)) * 100000) + ")";
      break;
  }
  std::string statement =
      "SELECT " + op + " FROM " + epoch_range(first, first + length);
  const std::uint64_t where = draw(20);
  if (where >= 10) {
    // Half the statements name one or two locations; the rest read all.
    const std::size_t a = draw(params_.sites);
    statement += " WHERE location = '" + site_name(a) + "'";
    if (where >= 17) {
      const std::size_t b = (a + 1 + draw(params_.sites - 1)) % params_.sites;
      statement += " AND location = '" + site_name(b) + "'";
    }
  }
  return statement;
}

std::vector<std::string> full_history_statements(const Params& params) {
  std::vector<std::string> out;
  for (std::size_t site = 0; site < params.sites; ++site) {
    out.push_back("SELECT topk(25) FROM " +
                  epoch_range(0, params.history_epochs + params.write_epochs) +
                  " WHERE location = '" + site_name(site) + "'");
  }
  return out;
}

}  // namespace e2e
