// Simulated switched network.
//
// Models the properties of Tiger's ATM fabric that the schedule protocol
// actually depends on:
//
//  * Inter-cub control messages ride TCP connections, so delivery between any
//    ordered pair of nodes is reliable and FIFO. The insert-after-deschedule
//    correctness argument of §4.1.3 leans on this ordering, so the simulation
//    enforces it explicitly (arrival times per (src,dst) pair are monotone).
//  * Messages experience a base switch latency, a per-byte serialization cost
//    at the control-channel rate, and bounded random jitter.
//  * Block data to clients is paced at the stream bitrate: a 1-second block
//    occupies roughly one block play time on the wire (the paper's startup
//    measurement includes this full second). Data transfer contends for NIC
//    bandwidth, which is metered and checked for oversubscription.
//  * A down node neither sends nor receives; messages in flight toward it
//    vanish. Messages already handed to the fabric by a node that
//    subsequently dies are still delivered ("on the wire").

#ifndef SRC_NET_NETWORK_H_
#define SRC_NET_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/check.h"
#include "src/common/due_amounts.h"
#include "src/common/rng.h"
#include "src/common/time.h"
#include "src/common/units.h"
#include "src/net/fault_plan.h"
#include "src/sim/shard_engine.h"
#include "src/sim/simulator.h"
#include "src/stats/meter.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace tiger {

using NetAddress = uint32_t;
constexpr NetAddress kInvalidAddress = static_cast<NetAddress>(-1);
static_assert(std::is_same_v<NetAddress, FaultNetAddress>,
              "fault_plan.h mirrors NetAddress to avoid a header cycle");

// Base class for anything carried by the network. Protocol modules derive
// their message structs from this.
struct Payload {
  virtual ~Payload() = default;
  // Opaque message-kind tag consulted by phase-anchored fault rules (see
  // fault_plan.h); kNoAnchor (-1) means "untyped". Tiger protocol messages
  // override this with their MsgKind so a NetFaultPlan can anchor a window
  // to, say, the first DescheduleMsg on the wire.
  virtual int fault_kind() const { return kNoAnchor; }
};

struct MessageEnvelope {
  NetAddress src = kInvalidAddress;
  NetAddress dst = kInvalidAddress;
  int64_t bytes = 0;
  std::shared_ptr<const Payload> payload;
};

class NetworkEndpoint {
 public:
  virtual ~NetworkEndpoint() = default;
  virtual void HandleMessage(const MessageEnvelope& envelope) = 0;
};

// Discards everything it receives; used as a traffic sink in benches.
class SinkEndpoint : public NetworkEndpoint {
 public:
  void HandleMessage(const MessageEnvelope& envelope) override {
    (void)envelope;
    ++received_;
  }
  int64_t received() const { return received_; }

 private:
  int64_t received_ = 0;
};

// Abstract message transport: what the protocol actors require of their
// network. The simulated Network implements it for deterministic runs; the
// real-socket TcpBus (src/net/tcp_bus.h) implements it for live clusters.
class MessageBus {
 public:
  virtual ~MessageBus() = default;
  virtual NetAddress Attach(NetworkEndpoint* endpoint, std::string name, int64_t nic_bps) = 0;
  virtual void Send(NetAddress src, NetAddress dst, int64_t bytes,
                    std::shared_ptr<const Payload> payload) = 0;
  virtual void SendPaced(NetAddress src, NetAddress dst, int64_t bytes, int64_t pace_bps,
                         std::shared_ptr<const Payload> payload) = 0;
  virtual void SetNodeUp(NetAddress node, bool up) = 0;
  virtual void Reassign(NetAddress node, NetworkEndpoint* endpoint) = 0;
};

struct NetworkConfig {
  // One-way fabric latency applied to every message.
  Duration base_latency = Duration::Micros(300);
  // Uniform random extra delay in [0, jitter].
  Duration jitter = Duration::Micros(200);
  // Rate at which control-message bytes serialize onto the wire.
  int64_t control_channel_bps = Megabits(100);
  // Minimum spacing enforced between FIFO deliveries on one (src,dst) pair.
  Duration fifo_spacing = Duration::Micros(1);
};

class Network : public MessageBus {
 public:
  Network(Simulator* sim, NetworkConfig config, Rng rng)
      : sim_(sim), config_(config), rng_(std::move(rng)) {
    TIGER_CHECK(sim != nullptr);
  }

  // Attaches an endpoint and returns its address. `nic_bps` is the node's
  // network interface capacity used for data-plane accounting.
  NetAddress Attach(NetworkEndpoint* endpoint, std::string name, int64_t nic_bps) override;

  // Reliable ordered control-plane send (TCP-like). No-op if src is down;
  // dropped at delivery time if dst is down.
  void Send(NetAddress src, NetAddress dst, int64_t bytes,
            std::shared_ptr<const Payload> payload) override;

  // Data-plane send paced at `pace_bps` (the stream bitrate): the payload is
  // delivered when the last byte arrives, i.e. after bytes*8/pace_bps plus
  // fabric latency. Not FIFO-coupled to the control plane.
  void SendPaced(NetAddress src, NetAddress dst, int64_t bytes, int64_t pace_bps,
                 std::shared_ptr<const Payload> payload) override;

  // Marks a node down (power loss) or back up.
  void SetNodeUp(NetAddress node, bool up) override;

  // Points an existing address at a different endpoint and brings it up —
  // the moral equivalent of IP takeover during controller failover.
  void Reassign(NetAddress node, NetworkEndpoint* endpoint) override;

  // Installs a fault-injection plan consulted on every control-plane Send.
  // The plan is not owned and may be null (no injection). Injected delay is
  // applied before the per-pair FIFO clamp, so ordering is preserved; drops
  // and duplicates are the plan's labeled contract violations.
  void SetFaultPlan(NetFaultPlan* plan) { fault_plan_ = plan; }

  // Wires the observability layer: every control-plane message becomes a
  // MSG_HOP span on `track` (begin at Send, end at delivery; ended with b=1
  // when the fabric or a dead receiver ate it), and per-hop latency feeds the
  // metrics histogram. Injected duplicate copies are not given flows of their
  // own. All pointers may be null.
  void SetTrace(Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics);

  // Sharded mode (DESIGN.md §6h): `node_shards[addr]` names the shard whose
  // loop owns that node's endpoint. Sends run on the source node's shard
  // (its meters, FIFO clock, jitter dice and trace context are all
  // shard-local) and deliveries route through the engine so they execute on
  // the destination node's shard, merged deterministically at barriers.
  // Nodes attached after this call default to shard 0. The jitter Rng forks
  // per shard here, so one-shard runs (no topology) keep the original stream.
  void SetShardTopology(ShardEngine* engine, std::vector<int> node_shards);

  // Per-shard trace context (sharded mode): shard `i`'s sends and deliveries
  // record into its own tracer/metrics, merged at export.
  void SetShardTrace(int shard, Tracer* tracer, TraceTrackId track, MetricsRegistry* metrics);

  // --- statistics ----------------------------------------------------------

  // Control-plane bytes sent by `node` (message payloads incl. headers).
  const CumulativeMeter& ControlBytesSent(NetAddress node) const;
  const CumulativeMeter& DataBytesSent(NetAddress node) const;
  int64_t ControlMessagesSent(NetAddress node) const;
  // Committed data-plane rate on the node's NIC right now, bits/sec. A
  // transfer whose release instant is at or before now counts as released,
  // whether or not anything has settled it yet.
  int64_t CurrentDataRate(NetAddress node) const;
  // Highest committed data rate ever observed on the node's NIC.
  int64_t PeakDataRate(NetAddress node) const;
  // Number of paced sends that began while the NIC was already full.
  int64_t OversubscriptionEvents(NetAddress node) const;
  int64_t nic_bps(NetAddress node) const;

  size_t node_count() const { return nodes_.size(); }

 private:
  struct Node {
    NetworkEndpoint* endpoint = nullptr;
    int64_t nic_bps = 0;
    bool up = true;
    CumulativeMeter control_bytes_sent;
    CumulativeMeter data_bytes_sent;
    int64_t control_messages_sent = 0;
    // Includes shares in `releases` that are due but not yet taken back.
    int64_t committed_data_bps = 0;
    // In-flight transfers' shares, by release instant. Taken back before the
    // next commit instead of by one timer per transfer.
    DueAmounts releases;
    int64_t peak_data_bps = 0;
    int64_t oversubscription_events = 0;
    // Last scheduled delivery time per destination; enforces per-pair FIFO.
    // Lives on the node (not a shared map) because sends run on the source
    // node's shard.
    std::map<NetAddress, TimePoint> last_delivery;
  };

  // One shard's observability hooks; a one-shard run uses entry 0 only.
  struct TraceCtx {
    Tracer* tracer = nullptr;
    TraceTrackId track = 0;
    BoundedHistogram* hop_latency_us = nullptr;
    int64_t* dropped_msgs = nullptr;
  };

  Node& NodeRef(NetAddress addr);
  const Node& NodeRef(NetAddress addr) const;

  int ShardOfNode(NetAddress addr) const {
    return addr < node_shards_.size() ? node_shards_[addr] : 0;
  }
  // The loop that owns `addr`'s endpoint (shard 0's sim when unsharded).
  Simulator* SimOf(NetAddress addr) const {
    return engine_ != nullptr ? &engine_->shard(ShardOfNode(addr)) : sim_;
  }
  Rng& DiceFor(int shard) { return shard_rngs_.empty() ? rng_ : shard_rngs_[shard]; }
  TraceCtx& CtxFor(int shard) { return trace_ctx_[static_cast<size_t>(shard)]; }

  // Routes a delivery closure to the destination node's loop.
  void ScheduleDelivery(TimePoint arrival, MessageEnvelope envelope, uint64_t flow,
                        TimePoint sent);
  // `flow`/`sent` carry the MSG_HOP span of a traced control message; paced
  // (data-plane) deliveries pass flow 0.
  void Deliver(MessageEnvelope envelope, uint64_t flow, TimePoint sent);

  Simulator* sim_;
  NetworkConfig config_;
  Rng rng_;
  NetFaultPlan* fault_plan_ = nullptr;
  std::vector<Node> nodes_;
  // Sharded mode; empty/null for one-shard runs.
  ShardEngine* engine_ = nullptr;
  std::vector<int> node_shards_;
  std::vector<Rng> shard_rngs_;
  std::vector<TraceCtx> trace_ctx_ = std::vector<TraceCtx>(1);
};

}  // namespace tiger

#endif  // SRC_NET_NETWORK_H_
