#pragma once

/// \file ftp.hpp
/// FTP-style cross traffic for the QoS experiments (Figs 14-16). Matches the
/// paper's setup: 50% GETs / 50% PUTs, a fresh TCP connection per transfer
/// (which makes the traffic "stubborn" relative to the DBMS's static
/// connections), and file sizes drawn to resemble DBMS transfer sizes —
/// a fraction of ~250 B control-like files, the rest 8-64 KB data-like.

#include <cstdint>
#include <memory>
#include <vector>

#include "net/tcp.hpp"
#include "proto/channel.hpp"
#include "sim/rng.hpp"
#include "sim/obs/registry.hpp"
#include "sim/obs/stats.hpp"

namespace dclue::proto {

enum FtpMsgType : std::uint32_t {
  kFtpGet = 200,
  kFtpPut,
  kFtpData,
  kFtpAck,
};

struct FtpRequestPayload {
  sim::Bytes file_bytes = 0;
};

/// Serves GET/PUT requests; one instance per "extra server" host.
class FtpServer {
 public:
  FtpServer(sim::Engine& engine, net::TcpStack& stack, std::uint16_t port);

  [[nodiscard]] std::uint64_t transfers_served() const { return served_; }

 private:
  sim::DetachedTask accept_loop(net::Listener& listener);
  sim::DetachedTask session(std::shared_ptr<net::TcpConnection> conn);

  sim::Engine& engine_;
  std::uint64_t served_ = 0;
};

struct FtpTrafficParams {
  double offered_load_bps = 0.0;
  std::uint16_t server_port = 21;
  net::Dscp dscp = net::Dscp::kBestEffort;
  double get_fraction = 0.5;
  double small_file_fraction = 0.3;
  sim::Bytes small_file_bytes = 250;
  sim::Bytes data_file_min = sim::kilobytes(8);
  sim::Bytes data_file_max = sim::kilobytes(64);

  [[nodiscard]] sim::Bytes mean_file_bytes() const {
    return static_cast<sim::Bytes>(
        small_file_fraction * static_cast<double>(small_file_bytes) +
        (1.0 - small_file_fraction) *
            static_cast<double>(data_file_min + data_file_max) / 2.0);
  }
};

/// Generates Poisson transfer arrivals from one "extra client" host toward a
/// set of FTP servers, at a configured offered load.
class FtpClient {
 public:
  FtpClient(sim::Engine& engine, net::TcpStack& stack,
            std::vector<net::Address> servers, FtpTrafficParams params,
            sim::Rng rng);

  void start();

  [[nodiscard]] std::uint64_t transfers_completed() const {
    return completed_.count();
  }
  [[nodiscard]] sim::Bytes bytes_carried() const {
    return static_cast<sim::Bytes>(bytes_carried_.count());
  }

  /// Bind this client's collectors under \p prefix ("ftp.client<i>.").
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    reg.bind(prefix + "completed", &completed_);
    reg.bind(prefix + "aborted", &aborted_);
    reg.bind(prefix + "bytes_carried", &bytes_carried_);
    reg.bind(prefix + "transfer_time", &transfer_time_);
  }

 private:
  sim::DetachedTask arrival_loop();
  sim::DetachedTask transfer();

  sim::Engine& engine_;
  net::TcpStack& stack_;
  std::vector<net::Address> servers_;
  FtpTrafficParams params_;
  sim::Rng rng_;
  obs::Counter completed_;
  obs::Counter aborted_;
  obs::Counter bytes_carried_;
  obs::Tally transfer_time_;
};

}  // namespace dclue::proto
