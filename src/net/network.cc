#include "src/net/network.h"

#include <algorithm>
#include <utility>

#include "src/common/units.h"
#include "src/trace/profiler.h"

namespace tiger {

NetAddress Network::Attach(NetworkEndpoint* endpoint, std::string name, int64_t nic_bps) {
  (void)name;
  TIGER_CHECK(endpoint != nullptr);
  TIGER_CHECK(nic_bps > 0);
  Node node;
  node.endpoint = endpoint;
  node.nic_bps = nic_bps;
  nodes_.push_back(std::move(node));
  return static_cast<NetAddress>(nodes_.size() - 1);
}

Network::Node& Network::NodeRef(NetAddress addr) {
  TIGER_CHECK(addr < nodes_.size()) << "bad address " << addr;
  return nodes_[addr];
}

const Network::Node& Network::NodeRef(NetAddress addr) const {
  TIGER_CHECK(addr < nodes_.size()) << "bad address " << addr;
  return nodes_[addr];
}

void Network::Send(NetAddress src, NetAddress dst, int64_t bytes,
                   std::shared_ptr<const Payload> payload) {
  Node& sender = NodeRef(src);
  NodeRef(dst);  // Validate.
  if (!sender.up) {
    return;  // A dead machine sends nothing.
  }
  TIGER_CHECK(bytes >= 0);
  // Everything on the send side — clock, meters, FIFO state, jitter dice,
  // trace context — belongs to the source node's shard.
  const int src_shard = ShardOfNode(src);
  const TimePoint sent = SimOf(src)->Now();
  sender.control_bytes_sent.Add(sent, static_cast<double>(bytes));
  sender.control_messages_sent++;

  TraceCtx& ctx = CtxFor(src_shard);
  uint64_t flow = 0;
  TIGER_TRACE_BEGIN_FLOW(flow, ctx.tracer, ctx.track, TraceEventType::kMsgHop,
                         TraceArgs{.a = static_cast<int64_t>(src), .b = static_cast<int64_t>(dst)});

  NetFaultPlan::Decision fault;
  if (fault_plan_ != nullptr) {
    fault = fault_plan_->Apply(sent, src, dst, payload->fault_kind());
    if (fault.drop) {
      // Injected loss: the fabric ate it. The span closes at the send instant
      // with the dropped marker.
      TIGER_TRACE_END_FLOW(ctx.tracer, ctx.track, TraceEventType::kMsgHop, flow,
                           TraceArgs{.b = 1});
      if (ctx.dropped_msgs != nullptr) {
        ++*ctx.dropped_msgs;
      }
      return;
    }
  }

  Duration delay = config_.base_latency + TransferTime(bytes, config_.control_channel_bps);
  if (config_.jitter > Duration::Zero()) {
    delay += DiceFor(src_shard).UniformDuration(Duration::Zero(), config_.jitter);
  }
  // Injected extra latency lands before the FIFO clamp below, so delaying one
  // message pushes everything after it on the same pair: ordering holds.
  delay += fault.extra_delay;
  TimePoint arrival = sent + delay;

  // TCP ordering: never deliver before (or at the same instant as) an earlier
  // message on the same ordered pair.
  auto it = sender.last_delivery.find(dst);
  if (it != sender.last_delivery.end() && arrival <= it->second) {
    arrival = it->second + config_.fifo_spacing;
  }
  sender.last_delivery[dst] = arrival;

  ScheduleDelivery(arrival, MessageEnvelope{src, dst, bytes, payload}, flow, sent);

  // Injected duplicates deliver after the original, spaced by the rule's
  // delay, and also advance the FIFO clock (a retransmitted TCP segment still
  // arrives in order; the duplication is visible only at the receiver).
  for (int i = 0; i < fault.duplicates; ++i) {
    arrival += config_.fifo_spacing + fault.duplicate_spacing;
    sender.last_delivery[dst] = arrival;
    ScheduleDelivery(arrival, MessageEnvelope{src, dst, bytes, payload}, /*flow=*/0,
                     TimePoint::Zero());
  }
}

void Network::ScheduleDelivery(TimePoint arrival, MessageEnvelope envelope, uint64_t flow,
                               TimePoint sent) {
  const int dst_shard = ShardOfNode(envelope.dst);
  auto deliver = [this, envelope = std::move(envelope), flow, sent]() {
    Deliver(envelope, flow, sent);
  };
  if (engine_ != nullptr) {
    // Routed through the engine even when source and destination share a
    // shard: the lookahead guarantee (delay ≥ base_latency ≥ window) means
    // the arrival always lands beyond the current window, and one path keeps
    // the merge order identical at every thread count.
    engine_->Post(dst_shard, arrival, std::move(deliver));
  } else {
    sim_->ScheduleAt(arrival, std::move(deliver));
  }
}

void Network::SendPaced(NetAddress src, NetAddress dst, int64_t bytes, int64_t pace_bps,
                        std::shared_ptr<const Payload> payload) {
  Node& sender = NodeRef(src);
  NodeRef(dst);  // Validate.
  if (!sender.up) {
    return;
  }
  TIGER_CHECK(bytes > 0);
  TIGER_CHECK(pace_bps > 0);
  Simulator* src_sim = SimOf(src);
  const TimePoint now = src_sim->Now();
  sender.data_bytes_sent.Add(now, static_cast<double>(bytes));

  // Commit NIC bandwidth for the duration of the paced transfer, after
  // returning the shares of transfers that have already ended.
  sender.committed_data_bps -= sender.releases.TakeDue(now);
  TIGER_DCHECK(sender.committed_data_bps >= 0);
  sender.committed_data_bps += pace_bps;
  sender.peak_data_bps = std::max(sender.peak_data_bps, sender.committed_data_bps);
  if (sender.committed_data_bps > sender.nic_bps) {
    sender.oversubscription_events++;
  }
  Duration pace_time = TransferTime(bytes, pace_bps);
  // Release the committed bandwidth a microsecond before the transfer's
  // nominal end: back-to-back schedule windows share an exact boundary
  // instant, and without this the release and the next commit at the same
  // timestamp would transiently double-count. NIC state is source-local, so
  // the releases are filed on the source node and taken back on its shard.
  Duration release_after = pace_time - Duration::Micros(1);
  if (release_after < Duration::Zero()) {
    release_after = Duration::Zero();
  }
  sender.releases.Add(now + release_after, pace_bps);

  TimePoint arrival = now + pace_time + config_.base_latency;
  if (config_.jitter > Duration::Zero()) {
    arrival += DiceFor(ShardOfNode(src)).UniformDuration(Duration::Zero(), config_.jitter);
  }
  ScheduleDelivery(arrival, MessageEnvelope{src, dst, bytes, std::move(payload)},
                   /*flow=*/0, TimePoint::Zero());
}

void Network::Deliver(MessageEnvelope envelope, uint64_t flow, TimePoint sent) {
  // Self time = fabric bookkeeping + dispatch into the endpoint; the
  // endpoint's decode/apply work claims its own categories underneath.
  TIGER_PROF_SCOPE(kMsgHop);
  Node& receiver = NodeRef(envelope.dst);
  TraceCtx& ctx = CtxFor(ShardOfNode(envelope.dst));
  if (!receiver.up) {
    // Messages to a dead machine vanish.
    TIGER_TRACE_END_FLOW(ctx.tracer, ctx.track, TraceEventType::kMsgHop, flow,
                         TraceArgs{.b = 1});
    if (flow != 0 && ctx.dropped_msgs != nullptr) {
      ++*ctx.dropped_msgs;
    }
    return;
  }
  TIGER_TRACE_END_FLOW(ctx.tracer, ctx.track, TraceEventType::kMsgHop, flow,
                       TraceArgs{.a = envelope.bytes});
  if (flow != 0 && ctx.hop_latency_us != nullptr) {
    ctx.hop_latency_us->Add(
        static_cast<double>((SimOf(envelope.dst)->Now() - sent).micros()));
  }
  receiver.endpoint->HandleMessage(envelope);
}

void Network::SetTrace(Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics) {
  SetShardTrace(0, tracer, track, metrics);
}

void Network::SetShardTrace(int shard, Tracer* tracer, TraceTrackId track,
                            MetricsRegistry* metrics) {
  TIGER_CHECK(shard >= 0 && static_cast<size_t>(shard) < trace_ctx_.size());
  TraceCtx& ctx = trace_ctx_[static_cast<size_t>(shard)];
  ctx.tracer = tracer;
  ctx.track = track;
  ctx.hop_latency_us = metrics != nullptr ? &metrics->Hist("net.hop_latency_us") : nullptr;
  ctx.dropped_msgs = metrics != nullptr ? &metrics->Counter("net.msgs_dropped") : nullptr;
}

void Network::SetShardTopology(ShardEngine* engine, std::vector<int> node_shards) {
  TIGER_CHECK(engine != nullptr);
  for (int shard : node_shards) {
    TIGER_CHECK(shard >= 0 && shard < engine->shards());
  }
  engine_ = engine;
  node_shards_ = std::move(node_shards);
  shard_rngs_.clear();
  for (int i = 0; i < engine->shards(); ++i) {
    shard_rngs_.push_back(rng_.Fork());
  }
  trace_ctx_.resize(static_cast<size_t>(engine->shards()));
}

void Network::SetNodeUp(NetAddress node, bool up) { NodeRef(node).up = up; }

void Network::Reassign(NetAddress node, NetworkEndpoint* endpoint) {
  TIGER_CHECK(endpoint != nullptr);
  Node& n = NodeRef(node);
  n.endpoint = endpoint;
  n.up = true;
}

const CumulativeMeter& Network::ControlBytesSent(NetAddress node) const {
  return NodeRef(node).control_bytes_sent;
}

const CumulativeMeter& Network::DataBytesSent(NetAddress node) const {
  return NodeRef(node).data_bytes_sent;
}

int64_t Network::ControlMessagesSent(NetAddress node) const {
  return NodeRef(node).control_messages_sent;
}

int64_t Network::CurrentDataRate(NetAddress node) const {
  const Node& n = NodeRef(node);
  const int64_t rate = n.committed_data_bps - n.releases.DueBy(SimOf(node)->Now());
  TIGER_DCHECK(rate >= 0);
  return rate;
}

int64_t Network::PeakDataRate(NetAddress node) const { return NodeRef(node).peak_data_bps; }

int64_t Network::OversubscriptionEvents(NetAddress node) const {
  return NodeRef(node).oversubscription_events;
}

int64_t Network::nic_bps(NetAddress node) const { return NodeRef(node).nic_bps; }

}  // namespace tiger
