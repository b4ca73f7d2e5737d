#include "loadgen.hpp"

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "flowdb/executor.hpp"
#include "flowdb/flowdb.hpp"
#include "flowtree/flatblock.hpp"
#include "net/framing.hpp"
#include "net/socket.hpp"
#include "serve/protocol.hpp"
#include "stats.hpp"

namespace e2e {
namespace {

using megads::bench::Clock;
using megads::bench::ms_since;
namespace serve = megads::serve;
namespace net = megads::net;

/// A request still unanswered this long counts as timed out and its
/// connection as lost.
constexpr auto kRequestTimeout = std::chrono::seconds(30);
/// Ad-hoc answers kept for the reference check: about one in kAdhocSample,
/// at most kAdhocChecks per pass.
constexpr std::uint64_t kAdhocSample = 8;
constexpr std::size_t kAdhocChecks = 48;

/// Every distinct answer text seen for one statement, with its count.
using Answers = std::map<std::string, std::uint64_t>;

/// A FlowDB read with the partitioned stack's stage 2: each location's
/// stage-1 partial is FBK1-encoded and folded back, as the shard's response
/// is in Coordinator::fold, before the merge across locations. The FBK1
/// round trip does not preserve every compression outcome, so a compressed
/// fold across locations can differ from FlowDB::merged, which merges the
/// pooled partials; an answer that differs from the reference only that way
/// is the known divergence, not a wrong answer.
class WireFoldSource final : public megads::flowdb::SummarySource {
 public:
  explicit WireFoldSource(const megads::flowdb::FlowDB& db) : db_(db) {}

  [[nodiscard]] megads::flowtree::Flowtree merged(
      const std::vector<megads::TimeInterval>& intervals,
      const std::vector<std::string>& locations) const override {
    namespace ft = megads::flowtree;
    ft::Flowtree result;
    for (const std::string& location :
         db_.matching_locations(intervals, locations)) {
      const std::vector<std::uint8_t> partial =
          ft::FlatCodec::encode(db_.merged(intervals, {location}));
      ft::Flowtree per_location;
      ft::FlatCodec::merge_into(ft::FlatView::parse(partial), per_location);
      result.merge(per_location);
    }
    return result;
  }

 private:
  const megads::flowdb::FlowDB& db_;
};

/// One closed-loop client connection: a single request in flight.
struct Conn {
  net::ScopedFd fd;
  net::FrameReassembler reassembler;
  std::vector<std::uint8_t> outbuf;
  std::size_t outpos = 0;
  std::uint64_t next_id = 1;
  std::uint64_t request_id = 0;  ///< 0 = idle
  std::string statement;
  std::string text;
  Answers* keep = nullptr;  ///< where the answer is kept for the check
  Clock::time_point sent;
  bool dead = false;
  std::size_t issued = 0;
  std::unique_ptr<AdhocStream> adhoc;
};

struct PassFigures {
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t errors = 0;
  std::uint64_t dropped = 0;
  std::uint64_t timeouts = 0;
  std::vector<double> latency_ms;
  /// Completion times, seconds after the loop started.
  std::vector<double> done_s;
  double elapsed_s = 0.0;
};

class Generator {
 public:
  explicit Generator(const GeneratorSpec& spec)
      : spec_(spec), panels_(dashboard_panels(spec.params)) {}

  PassFigures run_pass(std::uint16_t port);
  /// Also starts building the reference on a second thread while the stack
  /// answers: neither side is timed any more.
  void run_full(std::uint16_t port);
  std::string check();

 private:
  /// The closed loop: timed (issue for spec_.seconds), or scripted (issue
  /// each statement of script_ once). Either way, drain what is in flight.
  PassFigures run_loop(std::uint16_t port, bool timed);
  Clock::time_point loop_start_;
  std::string next_statement(Conn& conn, std::size_t index);
  /// Builds the single-node reference and the expected answers to
  /// `statements`.
  void build_reference(std::vector<std::string> statements);
  void issue(Conn& conn);
  void flush(Conn& conn);
  void read(Conn& conn, PassFigures& figures);
  void lose(Conn& conn, PassFigures& figures, bool timed_out);

  const GeneratorSpec& spec_;
  std::vector<std::string> panels_;
  std::uint64_t pass_ = 0;
  std::size_t adhoc_kept_ = 0;
  std::map<std::string, Answers> kept_;
  std::vector<std::string> script_;
  std::size_t script_pos_ = 0;
  std::map<std::string, Answers> full_;
  std::uint64_t full_errors_ = 0;
  std::uint64_t full_passes_ = 0;
  double full_ms_ = 0.0;
  std::optional<megads::flowdb::FlowDB> reference_;
  std::map<std::string, std::string> expected_;
  double reference_s_ = 0.0;
  std::future<void> reference_done_;
};

std::string Generator::next_statement(Conn& conn, std::size_t index) {
  if (!script_.empty()) {
    const std::string& statement = script_[script_pos_++];
    conn.keep = &full_[statement];
    return statement;
  }
  if (spec_.workload != Workload::kAdhoc) {
    // Each connection cycles the panels from its own offset, so the
    // connections' requests for one panel overlap only part of the time.
    const std::string& panel =
        panels_[(index * 3 + conn.issued) % panels_.size()];
    conn.keep = &kept_[panel];
    return panel;
  }
  std::string statement = conn.adhoc->next();
  conn.keep = nullptr;
  if (adhoc_kept_ < kAdhocChecks &&
      mix(spec_.seed ^ (pass_ << 40) ^ (index << 32) ^ conn.issued) %
              kAdhocSample ==
          0) {
    ++adhoc_kept_;
    conn.keep = &kept_[statement];
  }
  return statement;
}

void Generator::issue(Conn& conn) {
  serve::Request request;
  request.type = serve::RequestType::kQuery;
  request.request_id = conn.next_id++;
  request.body = serve::QueryBody{0, 0, conn.statement};
  const std::vector<std::uint8_t> frame =
      net::encode_frame(serve::encode(request));
  conn.outbuf.insert(conn.outbuf.end(), frame.begin(), frame.end());
  conn.request_id = request.request_id;
  conn.text.clear();
  conn.sent = Clock::now();
  flush(conn);
}

void Generator::flush(Conn& conn) {
  while (conn.outpos < conn.outbuf.size()) {
    const net::IoResult io =
        net::write_some(conn.fd.get(), conn.outbuf.data() + conn.outpos,
                        conn.outbuf.size() - conn.outpos);
    if (io.closed) {
      conn.dead = true;
      return;
    }
    conn.outpos += io.bytes;
    if (io.would_block) return;
  }
  conn.outbuf.clear();
  conn.outpos = 0;
}

void Generator::lose(Conn& conn, PassFigures& figures, bool timed_out) {
  if (conn.request_id != 0) {
    if (timed_out) {
      ++figures.timeouts;
    } else {
      ++figures.dropped;
    }
  }
  conn.request_id = 0;
  conn.dead = true;
}

void Generator::read(Conn& conn, PassFigures& figures) {
  std::uint8_t buf[16384];
  for (;;) {
    const net::IoResult io = net::read_some(conn.fd.get(), buf, sizeof(buf));
    if (io.closed) {
      lose(conn, figures, false);
      return;
    }
    if (io.bytes > 0) conn.reassembler.feed(buf, io.bytes);
    while (auto payload = conn.reassembler.next()) {
      const serve::Response response = serve::decode_response(*payload);
      if (response.request_id != conn.request_id) continue;
      if (response.type == serve::ResponseType::kResultChunk) {
        const auto& chunk = std::get<serve::ResultChunkBody>(response.body);
        conn.text += chunk.chunk;
        if (!chunk.last) continue;
        figures.latency_ms.push_back(ms_since(conn.sent));
        figures.done_s.push_back(ms_since(loop_start_) / 1000.0);
        ++figures.completed;
        if (conn.keep != nullptr) ++(*conn.keep)[conn.text];
      } else {
        ++figures.errors;
      }
      conn.request_id = 0;
    }
    if (io.would_block) return;
  }
}

PassFigures Generator::run_pass(std::uint16_t port) {
  ++pass_;
  return run_loop(port, true);
}

PassFigures Generator::run_loop(std::uint16_t port, bool timed) {
  PassFigures figures;
  std::vector<Conn> conns(spec_.params.connections);
  for (std::size_t i = 0; i < conns.size(); ++i) {
    conns[i].fd = net::tcp_connect("127.0.0.1", port);
    net::set_nonblocking(conns[i].fd.get());
    net::set_nodelay(conns[i].fd.get());
    if (spec_.workload == Workload::kAdhoc) {
      conns[i].adhoc = std::make_unique<AdhocStream>(
          spec_.seed ^ (pass_ << 48), i, spec_.params);
    }
  }
  const auto start = Clock::now();
  loop_start_ = start;
  const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(spec_.seconds));
  // Issue while the clock runs; afterwards drain what is in flight (those
  // requests were issued inside the window, so they count).
  bool issuing = true;
  std::vector<pollfd> fds(conns.size());
  for (;;) {
    const auto now = Clock::now();
    if (issuing && (timed ? now >= stop : script_pos_ >= script_.size())) {
      issuing = false;
      figures.elapsed_s = ms_since(start) / 1000.0;
    }
    std::size_t busy = 0;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& conn = conns[i];
      if (conn.dead) {
        if (conn.request_id != 0) lose(conn, figures, false);
        continue;
      }
      // A script runs out mid-round when several connections are idle.
      if (conn.request_id == 0 && issuing &&
          (timed || script_pos_ < script_.size())) {
        conn.statement = next_statement(conn, i);
        ++conn.issued;
        ++figures.issued;
        issue(conn);
      }
      if (conn.request_id != 0 && now - conn.sent > kRequestTimeout) {
        lose(conn, figures, true);
      }
      if (conn.request_id != 0) ++busy;
    }
    if (!issuing && busy == 0) break;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].dead ? -1 : conns[i].fd.get();
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i].outbuf.size() > conns[i].outpos ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    if (::poll(fds.data(), fds.size(), 10) <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (conns[i].dead || fds[i].revents == 0) continue;
      if ((fds[i].revents & POLLOUT) != 0) flush(conns[i]);
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        try {
          read(conns[i], figures);
        } catch (const std::exception&) {
          lose(conns[i], figures, false);  // malformed response stream
        }
      }
    }
  }
  return figures;
}

void Generator::run_full(std::uint16_t port) {
  ++full_passes_;
  script_ = full_history_statements(spec_.params);
  script_pos_ = 0;
  std::vector<std::string> statements = script_;
  for (const auto& [statement, answers] : kept_) statements.push_back(statement);
  reference_done_ = std::async(std::launch::async,
                               [this, statements = std::move(statements)] {
                                 build_reference(statements);
                               });
  const auto start = Clock::now();
  const PassFigures figures = run_loop(port, false);
  full_ms_ = ms_since(start);
  full_errors_ += figures.issued - figures.completed;
  script_.clear();
}

void Generator::build_reference(std::vector<std::string> statements) {
  const auto start = Clock::now();
  const Params& params = spec_.params;
  reference_.emplace();
  const std::size_t epochs = params.history_epochs + params.write_epochs;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    const std::size_t flows = epoch < params.history_epochs
                                  ? params.flows_per_summary
                                  : params.write_flows;
    for (std::size_t site = 0; site < params.sites; ++site) {
      // The shards index what Coordinator::add routes to them, the
      // summary's FBK1 encoding; the reference indexes the same bytes. A
      // FlowDB fed the Flowtree objects themselves can answer differently
      // once folds compress: the FBK1 round trip does not preserve every
      // compression outcome.
      reference_->add_encoded(
          megads::flowtree::FlatCodec::encode(
              build_tree(epoch_records(spec_.seed, site, epoch, flows))),
          epoch_interval(epoch), site_name(site));
    }
  }
  for (const std::string& statement : statements) {
    expected_[statement] =
        megads::flowdb::run_flowql(statement, *reference_).to_string();
  }
  reference_s_ = ms_since(start) / 1000.0;
}

std::string Generator::check() {
  const auto start = Clock::now();
  if (reference_done_.valid()) {
    reference_done_.get();
  } else {
    build_reference({});
  }
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t divergences = 0;
  const WireFoldSource wire(*reference_);
  const auto compare = [&](const std::string& statement,
                           const Answers& answers) {
    auto it = expected_.find(statement);
    if (it == expected_.end()) {
      it = expected_
               .emplace(statement, megads::flowdb::run_flowql(
                                       statement, *reference_)
                                       .to_string())
               .first;
    }
    const std::string& expected = it->second;
    for (const auto& [text, count] : answers) {
      checked += count;
      if (text == expected) continue;
      if (text == megads::flowdb::run_flowql(statement, wire).to_string()) {
        divergences += count;
        std::fprintf(stderr,
                     "bench_e2e: known FBK1 fold divergence (%llu times) on %s\n",
                     static_cast<unsigned long long>(count), statement.c_str());
      } else {
        mismatches += count;
        std::fprintf(stderr,
                     "bench_e2e: WRONG ANSWER (%llu times) to %s\n"
                     "--- expected\n%s--- got\n%s",
                     static_cast<unsigned long long>(count), statement.c_str(),
                     expected.c_str(), text.c_str());
      }
    }
  };
  for (const auto& [statement, answers] : kept_) compare(statement, answers);
  std::uint64_t full_mismatches = mismatches;
  for (const auto& [statement, answers] : full_) compare(statement, answers);
  full_mismatches = mismatches - full_mismatches;
  std::ostringstream out;
  out << "checked checked=" << checked << " mismatches=" << mismatches
      << " divergences=" << divergences
      << " statements=" << kept_.size() << " full_passes=" << full_passes_
      << " full_statements=" << full_.size()
      << " full_errors=" << full_errors_
      << " full_mismatches=" << full_mismatches << " full_ms=" << full_ms_
      << " reference_s=" << reference_s_
      << " check_wait_s=" << ms_since(start) / 1000.0;
  return out.str();
}

/// The pass's figures per window: kWindows equal parts of the timed window,
/// each query in the part it completed in (the drain after the window is
/// left out).
struct WindowFigures {
  std::vector<double> rate_qps;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
};

WindowFigures per_window(const PassFigures& f) {
  const double width = f.elapsed_s / static_cast<double>(kWindows);
  std::vector<std::vector<double>> latency(kWindows);
  for (std::size_t i = 0; width > 0.0 && i < f.done_s.size(); ++i) {
    const auto w = static_cast<std::size_t>(f.done_s[i] / width);
    if (w < kWindows) latency[w].push_back(f.latency_ms[i]);
  }
  WindowFigures out;
  for (const std::vector<double>& samples : latency) {
    const Distribution d(samples);
    out.rate_qps.push_back(width > 0.0 ? static_cast<double>(d.count()) / width
                                       : 0.0);
    out.p50_ms.push_back(d.quantile(0.50));
    out.p99_ms.push_back(d.quantile(0.99));
  }
  return out;
}

std::string figures_line(const PassFigures& f) {
  const WindowFigures windows = per_window(f);
  const auto median = [](const std::vector<double>& v) {
    return Distribution(v).quantile(0.5);
  };
  std::ostringstream out;
  out.precision(17);
  out << "loop_done issued=" << f.issued << " completed=" << f.completed
      << " errors=" << f.errors << " dropped=" << f.dropped
      << " timeouts=" << f.timeouts << " elapsed_s=" << f.elapsed_s
      << " rate_qps=" << median(windows.rate_qps)
      << " p50_ms=" << median(windows.p50_ms)
      << " p99_ms=" << median(windows.p99_ms)
      << " mean_ms=" << Distribution(f.latency_ms).mean();
  return out.str();
}

}  // namespace

double Reply::get(const std::string& key) const {
  const auto it = fields.find(key);
  if (it == fields.end()) {
    throw std::runtime_error("generator reply '" + tag + "' lacks " + key);
  }
  return it->second;
}

Reply parse_reply(const std::string& line) {
  Reply reply;
  std::istringstream in(line);
  in >> reply.tag;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) continue;
    reply.fields[token.substr(0, eq)] = std::stod(token.substr(eq + 1));
  }
  return reply;
}

void write_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t pos = 0;
  while (pos < framed.size()) {
    const ssize_t n = ::write(fd, framed.data() + pos, framed.size() - pos);
    if (n <= 0) throw std::runtime_error("bench_e2e: pipe write failed");
    pos += static_cast<std::size_t>(n);
  }
}

bool read_line(int fd, std::string& line) {
  line.clear();
  char c = 0;
  for (;;) {
    const ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

int run_generator(const GeneratorSpec& spec, int command_fd, int reply_fd) {
  Generator generator(spec);
  std::string line;
  while (read_line(command_fd, line)) {
    std::istringstream in(line);
    std::string command;
    unsigned port = 0;
    in >> command >> port;
    if (command == "go") {
      write_line(reply_fd,
                 figures_line(generator.run_pass(static_cast<std::uint16_t>(port))));
    } else if (command == "full") {
      generator.run_full(static_cast<std::uint16_t>(port));
      write_line(reply_fd, "full_done");
    } else if (command == "check") {
      write_line(reply_fd, generator.check());
      return 0;
    } else {
      return 2;
    }
  }
  return 1;
}

}  // namespace e2e
