#include "net/chaos.h"

#include <array>
#include <memory>

#include "common/rng.h"

namespace alchemist::net {

namespace {

double u01(std::uint64_t v) {
  return static_cast<double>(v >> 11) * (1.0 / 9007199254740992.0);
}

// Both ends of one proxied connection; shared by its two pump threads so the
// fds stay open until the slower pump is done with them.
struct Link {
  ScopedFd client;
  ScopedFd server;
  void sever() {
    if (client.valid()) ::shutdown(client.get(), SHUT_RDWR);
    if (server.valid()) ::shutdown(server.get(), SHUT_RDWR);
  }
};

}  // namespace

FaultPlan plan_for(const ChaosOptions& opts, std::uint64_t conn_index) {
  // A splitmix64 stream per connection: the plan must be a pure function of
  // (seed, index) so chaos runs replay exactly.
  std::uint64_t x = opts.seed ^ (0xd1b5'4a32'd192'ed03ull * (conn_index + 1));
  FaultPlan plan;
  const double u = u01(splitmix64(x));
  if (u < opts.kill_prob) {
    plan.kind = FaultPlan::Kind::Kill;
  } else if (u < opts.kill_prob + opts.corrupt_prob) {
    plan.kind = FaultPlan::Kind::Corrupt;
  } else if (u < opts.kill_prob + opts.corrupt_prob + opts.delay_prob) {
    plan.kind = FaultPlan::Kind::Delay;
  } else {
    return plan;
  }
  plan.downstream = (splitmix64(x) & 1) != 0;
  const std::uint32_t span = opts.max_offset == 0 ? 1 : opts.max_offset;
  plan.offset = 1 + splitmix64(x) % span;
  return plan;
}

bool ChaosProxy::start() {
  if (started_) return true;
  if (!listener_.open(opts_.listen_port)) return false;
  started_ = true;
  accept_thread_ = std::thread([this] { accept_loop(); });
  return true;
}

void ChaosProxy::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> pumps;
  {
    std::lock_guard<std::mutex> lk(mu_);
    pumps.swap(pumps_);
  }
  for (auto& t : pumps) {
    if (t.joinable()) t.join();
  }
  listener_.close();
  started_ = false;
}

void ChaosProxy::accept_loop() {
  for (;;) {
    const int client = listener_.accept();
    if (client < 0) return;
    const std::uint64_t idx = connections_.fetch_add(1);
    const int server = connect_loopback(opts_.target_port);
    if (server < 0) {
      ::close(client);
      continue;
    }
    FaultPlan plan = plan_for(opts_, idx);
    if (opts_.max_faults != 0 && plan.kind != FaultPlan::Kind::None &&
        faulted() >= opts_.max_faults) {
      plan = FaultPlan{};  // fault budget spent: pass through clean
    }
    switch (plan.kind) {
      case FaultPlan::Kind::Kill: kills_.fetch_add(1); break;
      case FaultPlan::Kind::Corrupt: corruptions_.fetch_add(1); break;
      case FaultPlan::Kind::Delay: delays_.fetch_add(1); break;
      case FaultPlan::Kind::None: break;
    }

    auto link = std::make_shared<Link>();
    link->client.reset(client);
    link->server.reset(server);
    for (int fd : {client, server}) {
      set_recv_timeout(fd, std::chrono::milliseconds(100));
      set_send_timeout(fd, std::chrono::seconds(5));
    }
    std::lock_guard<std::mutex> lk(mu_);
    pumps_.emplace_back([this, link, plan] {
      pump(link->client.get(), link->server.get(), plan, false);
      link->sever();
    });
    pumps_.emplace_back([this, link, plan] {
      pump(link->server.get(), link->client.get(), plan, true);
      link->sever();
    });
  }
}

void ChaosProxy::pump(int from, int to, FaultPlan plan, bool is_downstream) {
  const bool armed =
      plan.kind != FaultPlan::Kind::None && plan.downstream == is_downstream;
  std::uint64_t offset = 0;   // bytes forwarded in this direction
  bool fault_done = false;
  std::array<std::uint8_t, 2048> buf;
  while (!stopping_.load(std::memory_order_acquire)) {
    std::size_t got = 0;
    const RecvStatus rs = recv_some(from, buf.data(), buf.size(), got);
    if (rs == RecvStatus::TimedOut) continue;
    if (rs != RecvStatus::Data) return;

    std::size_t send_len = got;
    bool kill_after = false;
    if (armed && !fault_done && offset + got >= plan.offset) {
      switch (plan.kind) {
        case FaultPlan::Kind::Kill:
          // Forward exactly up to the offset, then tear the link: the bytes
          // before the cut arrive, everything after is lost — a torn frame.
          send_len = static_cast<std::size_t>(plan.offset - offset);
          kill_after = true;
          break;
        case FaultPlan::Kind::Corrupt:
          // Flip one byte at the exact offset; the FNV-1a frame footer on
          // the receiving side turns this into a typed BadChecksum.
          buf[static_cast<std::size_t>(plan.offset - offset - 1)] ^= 0x40;
          break;
        case FaultPlan::Kind::Delay:
          std::this_thread::sleep_for(opts_.delay);
          break;
        case FaultPlan::Kind::None:
          break;
      }
      fault_done = true;
    }
    if (send_len > 0 && !send_all(to, buf.data(), send_len)) return;
    offset += send_len;
    if (kill_after) return;  // pump exit severs both fds via the Link
  }
}

}  // namespace alchemist::net
