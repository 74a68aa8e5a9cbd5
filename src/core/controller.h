// The Tiger controller.
//
// "The Tiger controller serves only as a contact point (i.e., an IP address)
// for clients, the system clock master, and a few other low effort tasks"
// (§2.1). It routes start requests to the cub holding the first block (plus
// that cub's successor for redundancy) and deschedule requests to the cub
// currently serving the viewer. It holds NO schedule state beyond a small
// per-play routing stub — this is precisely what distributed schedule
// management removed from it (§3.3).

#ifndef SRC_CORE_CONTROLLER_H_
#define SRC_CORE_CONTROLLER_H_

#include <cstdint>
#include <unordered_map>

#include "src/common/ids.h"
#include "src/core/address_book.h"
#include "src/core/config.h"
#include "src/core/failure_view.h"
#include "src/core/messages.h"
#include "src/layout/striping.h"
#include "src/net/network.h"
#include "src/sim/actor.h"
#include "src/stats/meter.h"

namespace tiger {

class Controller : public Actor, public NetworkEndpoint {
 public:
  struct Counters {
    int64_t starts_routed = 0;
    int64_t stops_routed = 0;
    int64_t confirms_received = 0;
  };

  Controller(Simulator* sim, const TigerConfig* config, const Catalog* catalog,
             const StripeLayout* layout, MessageBus* net);

  void SetAddressBook(const AddressBook* addresses) { addresses_ = addresses; }

  // Turns this controller into a warm standby for the controller at
  // `primary`. It monitors the primary with heartbeats; on silence longer
  // than the failover timeout it takes over the primary's network address
  // (IP takeover) and begins serving. Play-routing stubs are soft state and
  // start empty — stops for pre-failover plays fall back to the
  // queue-purge/recover-from-view path, and new instance ids come from a
  // disjoint namespace.
  void BecomeStandbyFor(NetAddress primary);

  bool active() const { return active_; }
  bool took_over() const { return took_over_; }

  NetAddress address() const { return address_; }
  const Counters& counters() const { return counters_; }
  const CumulativeMeter& cpu_meter() const { return cpu_; }
  const FailureView& failure_view() const { return failure_view_; }
  int64_t active_play_count() const { return static_cast<int64_t>(plays_.size()); }

  // NetworkEndpoint:
  void HandleMessage(const MessageEnvelope& envelope) override;

 private:
  struct PlayStub {
    ViewerId viewer;
    uint32_t client_address = 0;
    FileId file;
    int64_t start_position = 0;
    // Filled in once the inserting cub confirms.
    bool confirmed = false;
    SlotId slot;
    TimePoint first_block_due;
  };
  using PlayMap = std::unordered_map<uint64_t, PlayStub>;

  void OnClientRequest(const ClientRequestMsg& msg);
  void RouteStart(const ClientRequestMsg& msg);
  void RouteStop(const ClientRequestMsg& msg);
  void OnStartConfirm(const StartConfirmMsg& msg);
  void OnFailureNotice(const FailureNoticeMsg& msg);
  void BackgroundTick();
  void PurgeTick();
  void MonitorTick();
  void TakeOver();

  // Erases a routing stub (and its newest_play_ entry, if it is the newest).
  PlayMap::iterator ErasePlay(PlayMap::iterator play);

  // First living cub responsible for `disk`'s requests.
  CubId TargetCubForDisk(DiskId disk) const;

  // Mints message-level lineage for an outgoing start/kill (audit trail;
  // zero protocol effect).
  RecordLineage MintMessageLineage();

  const TigerConfig* config_;
  const Catalog* catalog_;
  const StripeLayout* layout_;
  MessageBus* net_;
  NetAddress address_ = kInvalidAddress;
  const AddressBook* addresses_ = nullptr;

  FailureView failure_view_;
  Counters counters_;
  CumulativeMeter cpu_;
  uint64_t next_instance_ = 1;
  // Lineage state for controller-minted start/kill messages.
  uint64_t lamport_ = 0;
  uint32_t next_msg_epoch_ = 1;
  PlayMap plays_;  // By instance id.
  // Each viewer's newest play instance with a stub in plays_, for stops that
  // do not name their instance. Erased with that stub.
  std::unordered_map<ViewerId, uint64_t> newest_play_;
  // Standby / failover state.
  bool active_ = true;
  bool took_over_ = false;
  NetAddress primary_address_ = kInvalidAddress;
  TimePoint last_primary_echo_;
};

}  // namespace tiger

#endif  // SRC_CORE_CONTROLLER_H_
