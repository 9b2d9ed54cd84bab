#include "tcp/tcp_sender.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rss::tcp {

TcpSender::TcpSender(sim::Simulation& simulation, net::Node& node, net::NetDevice& egress,
                     std::unique_ptr<CongestionControl> cc, Options options)
    : sim_{simulation},
      node_{node},
      egress_{egress},
      cc_{std::move(cc)},
      opt_{options},
      rwnd_{options.rwnd_limit_bytes},
      rtt_{options.rtt},
      rto_timer_{simulation.scheduler(), this, &TcpSender::fire_rto_timer} {
  if (!cc_) throw std::invalid_argument("TcpSender: null congestion control");
  if (opt_.mss == 0) throw std::invalid_argument("TcpSender: zero MSS");
  node_.register_flow_handler(opt_.flow_id, [this](const net::Packet& p) { on_packet(p); });
  cc_->attach(*this);
  mib_.update_cwnd(cwnd_);
  mib_.CurSsthresh = ssthresh_;
}

void TcpSender::set_cwnd_bytes(double cwnd) {
  // Floor at one segment: a zero/negative window would deadlock the
  // ACK clock permanently.
  cwnd_ = std::max(cwnd, static_cast<double>(opt_.mss));
  mib_.update_cwnd(cwnd_);
  if (opt_.trace_cwnd) cwnd_trace_.record(sim_.now(), cwnd_);
}

void TcpSender::set_ssthresh_bytes(double ssthresh) {
  ssthresh_ = std::max(ssthresh, 2.0 * static_cast<double>(opt_.mss));
  mib_.CurSsthresh = ssthresh_;
}

void TcpSender::app_write(std::uint64_t bytes) {
  app_offset_ += bytes;
  maybe_send();
}

void TcpSender::set_unlimited(bool unlimited) {
  unlimited_ = unlimited;
  maybe_send();
}

std::uint64_t TcpSender::offset_of_ack(SeqNum ack) const {
  const std::int32_t d = distance(seq_of(acked_offset_), ack);
  if (d <= 0) return acked_offset_;  // old or duplicate ACK
  const std::uint64_t candidate = acked_offset_ + static_cast<std::uint32_t>(d);
  // Never trust an ACK beyond anything we transmitted.
  return std::min(candidate, std::max(sent_offset_, highest_sent_));
}

void TcpSender::maybe_send() {
  // RFC 2861: decay a cwnd that sat idle — halve once per RTO of idleness,
  // floored at the restart window (2 MSS here). Applied lazily at the next
  // send opportunity, then the idle clock restarts.
  if (opt_.cwnd_validation && last_send_activity_ && flight_size_bytes() == 0) {
    const sim::Time idle = sim_.now() - *last_send_activity_;
    const sim::Time rto = rtt_.rto();
    if (idle >= rto && rto > sim::Time::zero()) {
      const auto halvings = std::min<std::int64_t>(
          idle.nanoseconds_count() / rto.nanoseconds_count(), 30);
      double decayed = cwnd_;
      for (std::int64_t i = 0; i < halvings; ++i) decayed /= 2.0;
      set_cwnd_bytes(std::max(decayed, 2.0 * static_cast<double>(opt_.mss)));
      last_send_activity_ = sim_.now();
    }
  }

  while (true) {
    const auto wnd = static_cast<std::uint64_t>(
        std::min(cwnd_, static_cast<double>(std::min(rwnd_, opt_.rwnd_limit_bytes))));
    const std::uint64_t flight = flight_size_bytes();
    if (flight >= wnd) break;

    const std::uint64_t unsent =
        unlimited_ ? std::numeric_limits<std::uint64_t>::max()
                   : (app_offset_ > sent_offset_ ? app_offset_ - sent_offset_ : 0);
    if (unsent == 0) break;

    const auto len =
        static_cast<std::uint32_t>(std::min<std::uint64_t>(opt_.mss, unsent));
    // Avoid sub-MSS silly sends while data is in flight; with an empty pipe
    // send regardless to keep the ACK clock alive.
    if (wnd - flight < len && flight > 0) break;

    if (!send_segment(sent_offset_, len, sent_offset_ < highest_sent_)) break;
  }
}

bool TcpSender::send_segment(std::uint64_t offset, std::uint32_t len, bool retransmission) {
  net::Packet p;
  p.uid = uid_source_.next();
  p.flow_id = opt_.flow_id;
  p.dst_node = opt_.dst_node;
  p.payload_bytes = len;
  p.ect = opt_.ecn;  // data is ECT when the flow negotiated ECN
  p.tcp.seq = seq_of(offset).raw();

  const auto result = node_.send(p);
  if (result == net::Node::SendResult::kNoRoute)
    throw std::logic_error("TcpSender: no route to destination");

  if (result == net::Node::SendResult::kStalled) {
    // Linux 2.4 send-stall: segment dropped before the wire; data stays
    // pending (offsets do not advance). Count it, let the congestion
    // control react, and make sure *something* will retry if the pipe is
    // otherwise empty.
    ++mib_.SendStall;
    if (opt_.trace_stalls)
      stall_trace_.record(sim_.now(), static_cast<double>(mib_.SendStall));
    if (cc_->on_local_congestion()) {
      ++mib_.CongestionSignals;
      ++mib_.OtherReductions;
    }
    if (flight_size_bytes() == 0 && !stall_retry_timer_.valid()) {
      stall_retry_timer_ = sim_.in(opt_.stall_retry_delay, [this] {
        stall_retry_timer_ = sim::EventId{};
        maybe_send();
      });
    }
    return false;
  }

  ++mib_.PktsOut;
  mib_.DataBytesOut += len;
  if (retransmission) {
    ++mib_.PktsRetrans;
    mib_.BytesRetrans += len;
    // Karn: any retransmission invalidates the pending RTT sample.
    timed_segment_.reset();
  } else if (!timed_segment_) {
    timed_segment_ = {offset, sim_.now()};
  }

  if (offset == sent_offset_) {
    sent_offset_ += len;
    highest_sent_ = std::max(highest_sent_, sent_offset_);
  }
  last_send_activity_ = sim_.now();
  if (!rto_timer_.armed()) arm_rto_timer();
  return true;
}

void TcpSender::on_packet(const net::Packet& p) {
  if (!p.tcp.is_ack) return;
  ++mib_.AcksIn;
  rwnd_ = p.tcp.advertised_window;
  mib_.CurRwinRcvd = p.tcp.advertised_window;

  if (opt_.enable_sack) process_sack_blocks(p);

  const std::uint64_t ack_off = offset_of_ack(SeqNum{p.tcp.ack});
  if (ack_off > acked_offset_) {
    handle_new_ack(ack_off, p);
  } else if (ack_off == acked_offset_ && flight_size_bytes() > 0 && !p.is_data()) {
    ++mib_.DupAcksIn;
    handle_dup_ack();
  }
}

std::uint64_t TcpSender::offset_of_seq(SeqNum seq) const {
  const std::int32_t d = distance(seq_of(acked_offset_), seq);
  if (d <= 0) return acked_offset_;
  return std::min(acked_offset_ + static_cast<std::uint32_t>(d),
                  std::max(sent_offset_, highest_sent_));
}

void TcpSender::process_sack_blocks(const net::Packet& p) {
  for (std::uint8_t i = 0; i < p.tcp.sack_count; ++i) {
    std::uint64_t start = offset_of_seq(SeqNum{p.tcp.sack[i].start});
    std::uint64_t end = offset_of_seq(SeqNum{p.tcp.sack[i].end});
    if (end <= start || end <= acked_offset_) continue;
    start = std::max(start, acked_offset_);

    // Insert [start, end) into the merged scoreboard.
    auto it = sacked_.lower_bound(start);
    if (it != sacked_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= start) {
        start = prev->first;
        end = std::max(end, prev->second);
        it = prev;
      }
    }
    while (it != sacked_.end() && it->first <= end) {
      end = std::max(end, it->second);
      it = sacked_.erase(it);
    }
    sacked_.emplace(start, end);
  }
}

std::uint64_t TcpSender::sacked_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [start, end] : sacked_) {
    const std::uint64_t lo = std::max(start, acked_offset_);
    if (end > lo) total += end - lo;
  }
  return total;
}

std::optional<std::uint64_t> TcpSender::next_sack_hole(std::uint64_t from,
                                                       std::uint64_t until) const {
  std::uint64_t candidate = from;
  for (const auto& [start, end] : sacked_) {
    if (end <= candidate) continue;
    if (start > candidate) break;  // candidate sits in a hole before this block
    candidate = end;               // candidate was inside a SACKed range: skip it
  }
  if (candidate >= until) return std::nullopt;

  // RFC 6675 IsLost: a hole counts as lost only once >= DupThresh * MSS
  // bytes above it have been SACKed — anything less may simply still be in
  // flight, and retransmitting it would be spurious go-back-N.
  std::uint64_t sacked_above = 0;
  for (const auto& [start, end] : sacked_) {
    if (end > candidate) sacked_above += end - std::max(start, candidate);
  }
  if (sacked_above < 3ull * opt_.mss) return std::nullopt;
  return candidate;
}

void TcpSender::sack_recovery_send() {
  // RFC 6675-lite: pipe = bytes out - bytes SACKed; transmit (holes first,
  // then new data) while the pipe has room under cwnd.
  for (;;) {
    const std::uint64_t flight = flight_size_bytes();
    const std::uint64_t sacked = std::min(sacked_bytes(), flight);
    const std::uint64_t pipe = flight - sacked;
    const auto wnd = static_cast<std::uint64_t>(
        std::min(cwnd_, static_cast<double>(std::min(rwnd_, opt_.rwnd_limit_bytes))));
    if (pipe + opt_.mss > wnd) break;

    if (const auto hole = next_sack_hole(std::max(sack_retx_frontier_, acked_offset_),
                                         recover_offset_)) {
      const auto len = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(opt_.mss, recover_offset_ - *hole));
      if (!send_segment(*hole, len, /*retransmission=*/true)) return;
      sack_retx_frontier_ = *hole + len;
      continue;
    }
    // No hole left to repair: forward progress with new data if available.
    const std::uint64_t unsent = unlimited_ ? std::numeric_limits<std::uint64_t>::max()
                                            : (app_offset_ > sent_offset_
                                                   ? app_offset_ - sent_offset_
                                                   : 0);
    if (unsent == 0) break;
    const auto len = static_cast<std::uint32_t>(std::min<std::uint64_t>(opt_.mss, unsent));
    if (!send_segment(sent_offset_, len, sent_offset_ < highest_sent_)) return;
  }
}

void TcpSender::handle_new_ack(std::uint64_t ack_offset, const net::Packet& p) {
  const std::uint64_t bytes = ack_offset - acked_offset_;
  mib_.ThruBytesAcked += bytes;

  if (opt_.ecn) {
    // ECN feedback reaches the algorithm on every new ACK — including
    // inside recovery, where DCTCP keeps integrating its mark fraction.
    cc_->on_ecn_feedback(
        static_cast<std::uint32_t>(
            std::min<std::uint64_t>(bytes, std::numeric_limits<std::uint32_t>::max())),
        p.tcp.ece);
  }

  if (timed_segment_ && ack_offset > timed_segment_->first) {
    rtt_.add_sample(sim_.now() - timed_segment_->second);
    timed_segment_.reset();
    mib_.SmoothedRTT = rtt_.srtt();
    mib_.MinRTT = rtt_.min_rtt();
    mib_.CurRTO = rtt_.rto();
  }
  rtt_.reset_backoff();

  acked_offset_ = ack_offset;
  // Late ACKs after a go-back-N rewind may cover data beyond the rewound
  // send frontier; advance it so we never "re-send" acknowledged bytes.
  sent_offset_ = std::max(sent_offset_, acked_offset_);

  // Drop scoreboard state the cumulative ACK has overtaken.
  if (opt_.enable_sack && !sacked_.empty()) {
    for (auto it = sacked_.begin(); it != sacked_.end();) {
      if (it->second <= acked_offset_) {
        it = sacked_.erase(it);
      } else {
        ++it;
      }
    }
  }

  if (in_recovery_) {
    if (ack_offset >= recover_offset_) {
      // Full ACK: deflate to ssthresh and leave recovery (NewReno/SACK).
      set_cwnd_bytes(ssthresh_);
      in_recovery_ = false;
      dupacks_ = 0;
      sacked_.clear();
      sack_retx_frontier_ = acked_offset_;
    } else if (opt_.enable_sack) {
      // Partial ACK under SACK: the pipe algorithm decides what to send;
      // cwnd stays parked at ssthresh (no inflation/deflation dance).
      sack_retx_frontier_ = std::max(sack_retx_frontier_, acked_offset_);
      sack_recovery_send();
    } else {
      // Partial ACK: the next hole is lost too — retransmit it, deflate by
      // the amount acked, stay in recovery (RFC 6582).
      retransmit_head();
      set_cwnd_bytes(std::max(cwnd_ - static_cast<double>(bytes) +
                                  static_cast<double>(opt_.mss),
                              static_cast<double>(opt_.mss)));
    }
  } else {
    dupacks_ = 0;
    const bool was_slow_start = cc_->in_slow_start();
    cc_->on_ack(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(bytes, std::numeric_limits<std::uint32_t>::max())));
    if (was_slow_start) {
      ++mib_.SlowStartSegments;
    } else {
      ++mib_.CongAvoidSegments;
    }
  }

  if (flight_size_bytes() == 0) {
    rto_timer_.disarm();
  } else {
    arm_rto_timer();  // RFC 6298 5.3: restart on new data acked
  }
  maybe_send();
}

void TcpSender::handle_dup_ack() {
  ++dupacks_;
  if (!in_recovery_ && dupacks_ == 3) {
    cc_->on_fast_retransmit();  // sets ssthresh (and, for Tahoe, cwnd)
    ++mib_.FastRetran;
    ++mib_.CongestionSignals;
    retransmit_head();
    if (!cc_->use_fast_recovery()) {
      // Tahoe-style restart: the algorithm already collapsed cwnd; just
      // forget the dupack run and let slow-start rebuild the window.
      dupacks_ = 0;
    } else if (opt_.enable_sack) {
      // SACK recovery (RFC 6675-lite): park cwnd at ssthresh and let the
      // pipe estimate govern transmission — no window inflation.
      in_recovery_ = true;
      recover_offset_ = std::max(sent_offset_, highest_sent_);
      sack_retx_frontier_ = acked_offset_ + opt_.mss;  // head was just resent
      set_cwnd_bytes(ssthresh_);
      sack_recovery_send();
    } else {
      in_recovery_ = true;
      recover_offset_ = std::max(sent_offset_, highest_sent_);
      set_cwnd_bytes(ssthresh_ + 3.0 * static_cast<double>(opt_.mss));  // inflation
    }
    maybe_send();
  } else if (in_recovery_) {
    if (opt_.enable_sack) {
      sack_recovery_send();  // new SACK info may have opened pipe room
    } else {
      set_cwnd_bytes(cwnd_ + static_cast<double>(opt_.mss));
      maybe_send();
    }
  }
}

void TcpSender::retransmit_head() {
  const std::uint64_t outstanding = std::max(sent_offset_, highest_sent_) - acked_offset_;
  if (outstanding == 0) return;
  const auto len = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(opt_.mss, outstanding));
  (void)send_segment(acked_offset_, len, /*retransmission=*/true);
  arm_rto_timer();
}

void TcpSender::fire_rto_timer(void* self) {
  static_cast<TcpSender*>(self)->on_retransmission_timeout();
}

void TcpSender::on_retransmission_timeout() {
  if (flight_size_bytes() == 0) return;

  ++mib_.Timeouts;
  ++mib_.CongestionSignals;
  cc_->on_retransmit_timeout();
  rtt_.backoff();
  mib_.CurRTO = rtt_.rto();
  in_recovery_ = false;
  dupacks_ = 0;
  timed_segment_.reset();
  sacked_.clear();  // RFC 6675 §5.1: the scoreboard is suspect after RTO
  sack_retx_frontier_ = acked_offset_;
  sent_offset_ = acked_offset_;  // go-back-N: everything outstanding is suspect
  arm_rto_timer();
  maybe_send();
}

double TcpSender::goodput_mbps(sim::Time t0, sim::Time t1) const {
  if (t1 <= t0) return 0.0;
  // Average goodput of the whole transfer window [t0, t1]; for time-resolved
  // goodput use a web100::PollingAgent over ThruBytesAcked.
  return static_cast<double>(acked_offset_) * 8.0 / (t1 - t0).to_seconds() / 1e6;
}

}  // namespace rss::tcp
