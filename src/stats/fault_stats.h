// Per-run fault accounting.
//
// Every fault the harness injects (and every recovery action the system takes
// in response) is recorded here with its simulated timestamp and the ids it
// involved. Two uses:
//
//  * Counters: the chaos test prints a summary table so regressions in fault
//    handling are visible, not silent.
//  * Determinism: EventLog() renders the exact injected-fault sequence as
//    text; two runs with the same seed must produce byte-identical logs.

#ifndef SRC_STATS_FAULT_STATS_H_
#define SRC_STATS_FAULT_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/ids.h"
#include "src/common/time.h"

namespace tiger {

class FaultStats {
 public:
  enum class Kind {
    kMessageDropped = 0,
    kMessageDelayed,
    kMessageDuplicated,
    kTransientDiskError,
    kLimpedRead,
    kCubRejoin,
    kMirrorRecovery,
    kKindCount,  // sentinel
  };

  // The id columns of an event are kind-dependent, so recording goes through
  // typed helpers — passing a DiskId where a CubId belongs is a compile
  // error, not a silently wrong log line. Actors call them through
  // ShardEngine::JournalAppend, so in sharded runs they apply at barriers in
  // a thread-count-invariant order.

  // kMessageDropped / kMessageDelayed / kMessageDuplicated. `src` and `dst`
  // are network addresses (plain integers by design: the stats layer sits
  // below the network layer that defines NetAddress).
  void RecordMessageFault(Kind kind, TimePoint when, uint32_t src, uint32_t dst);
  // kTransientDiskError / kLimpedRead.
  void RecordDiskFault(Kind kind, TimePoint when, DiskId disk);
  void RecordCubRejoin(TimePoint when, CubId cub);
  // A block served through the declustered mirror chain: which cub fell back,
  // and for which block position.
  void RecordMirrorRecovery(TimePoint when, CubId cub, int64_t block);

  int64_t Count(Kind kind) const;
  int64_t total() const { return static_cast<int64_t>(events_.size()); }

  // One line per event, e.g. "t=12.345678 DROP 3->5". Deterministic given a
  // deterministic run; used by the chaos test's same-seed comparison.
  std::string EventLog() const;

  // Prints a counter-per-kind summary table.
  void PrintSummary(std::FILE* out = stdout) const;

  static const char* KindName(Kind kind);

 private:
  struct Event {
    Kind kind;
    TimePoint when;
    int64_t a;
    int64_t b;
  };

  // Untyped core the helpers funnel into. `a`/`b` are the kind-dependent id
  // columns of EventLog(); -1 means unused.
  void Record(Kind kind, TimePoint when, int64_t a = -1, int64_t b = -1);

  std::vector<Event> events_;
  int64_t counts_[static_cast<int>(Kind::kKindCount)] = {};
};

}  // namespace tiger

#endif  // SRC_STATS_FAULT_STATS_H_
