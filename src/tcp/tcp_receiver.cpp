#include "tcp/tcp_receiver.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace rss::tcp {

TcpReceiver::TcpReceiver(sim::Simulation& simulation, net::Node& node, Options options)
    : node_{node},
      opt_{options},
      rcv_nxt_{options.initial_seq},
      delack_timer_{simulation.scheduler(), this, &TcpReceiver::fire_delack_timer} {
  if (opt_.ack_every < 1) throw std::invalid_argument("TcpReceiver: ack_every must be >= 1");
  node_.register_flow_handler(opt_.flow_id, [this](const net::Packet& p) { on_packet(p); });
}

void TcpReceiver::on_packet(const net::Packet& p) {
  if (!p.is_data()) return;  // receiver side only consumes data segments
  ++packets_received_;

  if (opt_.ecn) {
    if (p.ce) ++ce_received_;
    if (p.ce != ce_state_) {
      // RFC 8257 §3.2: a CE-state change first flushes an immediate ACK
      // carrying the *old* state, so the sender can attribute every acked
      // byte to the right mark state; subsequent ACKs echo the new state.
      send_ack();
      ce_state_ = p.ce;
    }
  }

  const SeqNum seq{p.tcp.seq};
  const SeqNum seg_end = seq + p.payload_bytes;

  if (seg_end <= rcv_nxt_) {
    // Entirely old (spurious retransmission): re-ACK immediately so the
    // sender's state converges.
    ++duplicates_;
    send_ack();
    return;
  }

  if (seq > rcv_nxt_) {
    // Gap: buffer and emit an immediate duplicate ACK (RFC 5681 §3.2).
    ++out_of_order_;
    const auto it = std::lower_bound(ooo_.begin(), ooo_.end(), seq,
                                     [](const Buffered& b, SeqNum s) { return b.start < s; });
    if (it == ooo_.end() || it->start != seq) {
      ooo_.insert(it, Buffered{seq, p.payload_bytes});
    } else if (p.payload_bytes > it->length) {
      it->length = p.payload_bytes;
    }
    last_ooo_seq_ = seq;
    send_ack();
    return;
  }

  // In-order (possibly partially duplicate) segment: advance rcv_nxt.
  const auto fresh = static_cast<std::uint32_t>(distance(rcv_nxt_, seg_end));
  rcv_nxt_ = seg_end;
  bytes_received_ += fresh;

  // Pull any now-contiguous buffered segments.
  bool filled_gap = false;
  auto pulled = ooo_.begin();
  for (; pulled != ooo_.end() && !(pulled->start > rcv_nxt_); ++pulled) {
    const SeqNum buf_end = pulled->start + pulled->length;
    if (buf_end > rcv_nxt_) {
      bytes_received_ += static_cast<std::uint32_t>(distance(rcv_nxt_, buf_end));
      rcv_nxt_ = buf_end;
      filled_gap = true;
    }
  }
  ooo_.erase(ooo_.begin(), pulled);

  if (filled_gap) {
    // ACK immediately after a gap fill so recovery completes promptly.
    send_ack();
    return;
  }

  const bool quickack = packets_received_ <= opt_.quickack_segments;
  if (quickack || ++unacked_arrivals_ >= opt_.ack_every) {
    send_ack();
  } else if (!delack_timer_.armed()) {
    delack_timer_.arm_in(opt_.delayed_ack_timeout);
  }
}

void TcpReceiver::fire_delack_timer(void* self) {
  auto& receiver = *static_cast<TcpReceiver*>(self);
  if (receiver.unacked_arrivals_ > 0) receiver.send_ack();
}

void TcpReceiver::send_ack() {
  delack_timer_.disarm();
  unacked_arrivals_ = 0;

  net::Packet ack;
  ack.uid = uid_source_.next();
  ack.flow_id = opt_.flow_id;
  ack.dst_node = opt_.peer_node;
  ack.payload_bytes = 0;
  ack.tcp.is_ack = true;
  ack.tcp.ack = rcv_nxt_.raw();
  ack.tcp.advertised_window = opt_.advertised_window;
  ack.tcp.ece = opt_.ecn && ce_state_;
  if (opt_.enable_sack && !ooo_.empty()) fill_sack_blocks(ack.tcp);
  // An ACK rejected by the local IFQ is simply lost; cumulative ACKs are
  // self-repairing, so no further action is needed.
  (void)node_.send(ack);
  ++acks_sent_;
}

void TcpReceiver::fill_sack_blocks(net::TcpHeader& header) const {
  // Merge contiguous reassembly-buffer entries into blocks (ascending).
  struct Block {
    SeqNum start;
    SeqNum end;
  };
  std::vector<Block> blocks;
  for (const Buffered& segment : ooo_) {
    const SeqNum end = segment.start + segment.length;
    if (!blocks.empty() && segment.start <= blocks.back().end) {
      if (end > blocks.back().end) blocks.back().end = end;
    } else {
      blocks.push_back({segment.start, end});
    }
  }
  // RFC 2018 §4: the block containing the most recently received segment
  // comes first, so the sender learns about the newest arrival even if the
  // list is truncated.
  if (last_ooo_seq_) {
    for (std::size_t i = 1; i < blocks.size(); ++i) {
      if (blocks[i].start <= *last_ooo_seq_ && *last_ooo_seq_ < blocks[i].end) {
        std::rotate(blocks.begin(), blocks.begin() + static_cast<std::ptrdiff_t>(i),
                    blocks.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        break;
      }
    }
  }
  header.sack_count = static_cast<std::uint8_t>(std::min<std::size_t>(blocks.size(), 3));
  for (std::size_t i = 0; i < header.sack_count; ++i) {
    header.sack[i] = {blocks[i].start.raw(), blocks[i].end.raw()};
  }
}

}  // namespace rss::tcp
