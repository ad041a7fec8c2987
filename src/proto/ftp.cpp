#include "proto/ftp.hpp"

namespace dclue::proto {

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

FtpServer::FtpServer(sim::Engine& engine, net::TcpStack& stack,
                     std::uint16_t port)
    : engine_(engine) {
  accept_loop(stack.listen(port));
}

sim::DetachedTask FtpServer::accept_loop(net::Listener& listener) {
  for (;;) {
    auto conn = co_await listener.accept();
    // FTP cross traffic is TCP by construction (it models internet-style
    // interference, not cluster fabric), and session() needs the concrete
    // type for wait_all_acked().
    session(std::static_pointer_cast<net::TcpConnection>(std::move(conn)));
  }
}

sim::DetachedTask FtpServer::session(std::shared_ptr<net::TcpConnection> conn) {
  auto channel = std::make_shared<MsgChannel>(conn);
  Message req = co_await channel->inbox().receive();
  if (req.type >= kChannelClosed) co_return;
  auto payload = std::static_pointer_cast<FtpRequestPayload>(req.payload);
  if (req.type == kFtpGet) {
    Message data;
    data.type = kFtpData;
    data.bytes = payload->file_bytes;
    channel->send(std::move(data));
    co_await conn->wait_all_acked();
  } else if (req.type == kFtpPut) {
    Message data = co_await channel->inbox().receive();
    if (data.type >= kChannelClosed) co_return;
    Message ack;
    ack.type = kFtpAck;
    ack.bytes = 64;
    channel->send(std::move(ack));
    co_await conn->wait_all_acked();
  }
  if (!conn->closed()) conn->close();
  ++served_;
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

FtpClient::FtpClient(sim::Engine& engine, net::TcpStack& stack,
                     std::vector<net::Address> servers, FtpTrafficParams params,
                     sim::Rng rng)
    : engine_(engine),
      stack_(stack),
      servers_(std::move(servers)),
      params_(params),
      rng_(rng) {}

void FtpClient::start() {
  if (params_.offered_load_bps > 0.0 && !servers_.empty()) arrival_loop();
}

sim::DetachedTask FtpClient::arrival_loop() {
  const double mean_interarrival =
      static_cast<double>(params_.mean_file_bytes()) * 8.0 /
      params_.offered_load_bps;
  for (;;) {
    co_await sim::delay_for(engine_, rng_.exponential(mean_interarrival));
    transfer();
  }
}

sim::DetachedTask FtpClient::transfer() {
  const sim::Bytes file =
      rng_.chance(params_.small_file_fraction)
          ? params_.small_file_bytes
          : rng_.uniform_int(params_.data_file_min, params_.data_file_max);
  const bool is_get = rng_.chance(params_.get_fraction);
  const net::Address server =
      servers_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(servers_.size()) - 1))];
  const sim::Time started = engine_.now();

  auto conn = stack_.connect(server, params_.server_port, params_.dscp);
  auto channel = std::make_shared<MsgChannel>(conn);
  co_await conn->established().wait();
  if (conn->closed()) {
    aborted_.record();
    co_return;
  }

  Message req;
  req.type = is_get ? kFtpGet : kFtpPut;
  req.bytes = 64;
  req.payload = std::make_shared<FtpRequestPayload>(FtpRequestPayload{file});
  channel->send(std::move(req));

  if (is_get) {
    Message data = co_await channel->inbox().receive();
    if (data.type >= kChannelClosed) {
      aborted_.record();
      co_return;
    }
    bytes_carried_.record(static_cast<std::uint64_t>(data.bytes));
  } else {
    Message data;
    data.type = kFtpData;
    data.bytes = file;
    channel->send(std::move(data));
    Message ack = co_await channel->inbox().receive();
    if (ack.type >= kChannelClosed) {
      aborted_.record();
      co_return;
    }
    bytes_carried_.record(static_cast<std::uint64_t>(file));
  }
  conn->close();
  completed_.record();
  transfer_time_.record(engine_.now() - started);
}

}  // namespace dclue::proto
